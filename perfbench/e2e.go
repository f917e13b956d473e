package main

import (
	"fmt"
	"runtime"
	"time"
)

// genLateLimitMs flags an open phase whose generator ran this late at p99:
// past it the schedule, not the server, shapes the open-loop latencies.
const genLateLimitMs = 1.0

// rounds is how many closed/open phase pairs a run alternates through.
const rounds = 5

// runE2E measures the end-to-end metrics: set-up (exec to first /readyz
// 200, median of w.boots boots), then, against the last boot, rounds of a
// closed loop and an open loop over loopback with nproc connections.
func runE2E(fx *fixture, bin string, seconds int, rep *report) (tally, error) {
	var t tally
	w := fx.w
	// Only the queries and their answers are needed from here on; a small
	// heap keeps this process's collections short while it drives load.
	fx.items, fx.oracleTree = nil, nil
	runtime.GC()
	setups := make([]float64, 0, w.boots)
	var srv *child
	for b := 0; b < w.boots; b++ {
		c, setup, err := startServer(bin, fx, b)
		if err != nil {
			return t, err
		}
		setups = append(setups, setup.Seconds())
		if b < w.boots-1 {
			c.stop()
		} else {
			srv = c
		}
	}
	defer srv.stop()

	conns := runtime.NumCPU()
	l := newLoader(srv.addr, conns, fx.queries)
	// The closed and open phases alternate over the run, half of it each,
	// so a slow spell of the shared machine lands on both.
	window := time.Duration(seconds) * time.Second / (2 * rounds)
	l.closedLoop(time.Second) // warm-up: connections, pools, page cache
	var closedLat, openLat, late, qps, closedP50, openP50 []float64
	for r := 0; r < rounds; r++ {
		lat, rate := l.closedLoop(window)
		closedLat = append(closedLat, lat...)
		qps = append(qps, rate)
		closedP50 = append(closedP50, median(lat))
		lat, lt := l.openLoop(w.rate, window)
		openLat = append(openLat, lat...)
		late = append(late, lt...)
		openP50 = append(openP50, median(lat))
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return t, err
	}
	srv.stop()

	t.attempted, t.failed = l.attempted.Load(), l.failed.Load()
	if n := l.uncovered(); n > 0 && t.failed == 0 {
		return t, fmt.Errorf("%d of %d queries were never sent: raise -seconds or lower the query count", n, len(fx.queries))
	}

	rep.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d boots", len(setups)))
	rep.add("throughput_qps", median(qps), "1/s", fmt.Sprintf("median of %d rounds, %d conns", rounds, conns))
	rep.add("closed_p50_ms", median(closedP50), "ms", fmt.Sprintf("median of %d rounds, n=%d", rounds, len(closedLat)))
	// The tails and the open-loop figures are reported, not metrics of
	// BENCHMARK.json: on a shared 2-core machine their spread between runs
	// of one build (a fifth of the median for closed_p99, a quarter to a
	// half for the open loop, which also carries the generator's wake-up
	// delays) reaches the largest bound a metric may have.
	rep.show("open_p50_ms", median(openP50), "ms", fmt.Sprintf("median of %d rounds, n=%d", rounds, len(openLat)))
	for _, p := range []struct {
		name string
		lat  []float64
	}{{"closed_p99_ms", closedLat}, {"open_p99_ms", openLat}} {
		if p99, chunks, err := chunkedP99(p.lat, rounds); err == nil {
			rep.show(p.name, p99, "ms", fmt.Sprintf("median of %d chunks, n=%d", chunks, len(p.lat)))
		} else {
			rep.note("%s not reported: %v", p.name, err)
		}
	}
	rep.add("server_rss_mb", rss, "MB", "VmHWM")
	rep.show("error_rate", float64(t.failed)/float64(t.attempted), "ratio",
		fmt.Sprintf("%d failed of %d attempted, %d wrong answers", t.failed, t.attempted, l.wrong.Load()))

	lateP50, lateP99 := median(late), quantile(late, 0.99)
	rep.show("gen_late_ms.p50", lateP50, "ms", fmt.Sprintf("harness health, n=%d", len(late)))
	rep.show("gen_late_ms.p99", lateP99, "ms", fmt.Sprintf("harness health, n=%d", len(late)))
	if lateP99 > genLateLimitMs {
		rep.note("generator fell behind: gen_late p99 %.3f ms > %.1f ms; open-loop latencies include generator lag", lateP99, genLateLimitMs)
	}
	rep.note("%d rounds of a %v closed loop with %d conns and a %v open loop at %.0f req/s",
		rounds, window, conns, window, w.rate)
	rep.note("closed rounds: qps %.1f, p50 ms %.4f", qps, closedP50)
	return t, nil
}
