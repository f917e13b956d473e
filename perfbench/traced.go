package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"hyperdom/internal/dominance"
	"hyperdom/internal/knn"
)

// minCalls keeps at least ten samples beyond every per-layer p99.
const minCalls = 1100

// runTraced measures the per-layer metrics. One connection over loopback
// against the real server gives the transport share and the runtime
// figures; then, in this process and from a single caller, the benchmark
// times calls into each layer's public entry point over the same corpus
// and queries, recording a span around each call (and, for the shard
// layer, child spans from the returned Explain tree). Spans stay in memory
// and are written as Chrome trace_event JSON at the end.
func runTraced(fx *fixture, bin string, seconds int, rep *report) (tally, error) {
	var t tally
	phase := time.Duration(seconds) * time.Second / 2
	qs := fx.queries

	srv, _, err := startServer(bin, fx, 0)
	if err != nil {
		return t, err
	}
	defer srv.stop()
	l := newLoader(srv.addr, 1, qs)
	l.closedLoop(time.Second)
	before, err := scrapeMemstats(srv.base)
	if err != nil {
		return t, err
	}
	loop, _ := l.closedLoop(phase)
	after, err := scrapeMemstats(srv.base)
	if err != nil {
		return t, err
	}
	srv.stop()
	t.attempted, t.failed = l.attempted.Load(), l.failed.Load()

	ly, err := newLayers(fx, 3)
	if err != nil {
		return t, err
	}
	defer ly.close()
	check := func(ok bool) {
		t.attempted++
		if !ok {
			t.failed++
		}
	}
	tr := &tracer{epoch: time.Now()}
	var ids []int

	// Server layer. Each query runs once untraced and once traced, in
	// alternating order; the closed-loop iteration of the traced call
	// includes recording its span, so the difference is the tracing cost.
	rec := newRecorder()
	var handlerUs, tracedIterUs []float64
	var respBytes int64
	deadline := time.Now().Add(phase / 2)
	for i := 0; i < minCalls || time.Now().Before(deadline); i++ {
		q := &qs[i%len(qs)]
		for pass := 0; pass < 2; pass++ {
			traced := (pass == 0) == (i%2 == 0)
			req := newKNNRequest(q)
			rec.reset()
			t0 := time.Now()
			ly.h.ServeHTTP(rec, req)
			t1 := time.Now()
			if traced {
				tr.add("server.handler", t0, t1)
				tracedIterUs = append(tracedIterUs, us(time.Since(t0)))
			} else {
				handlerUs = append(handlerUs, us(t1.Sub(t0)))
			}
			respBytes += int64(rec.buf.Len())
			var ok bool
			ids, ok = parseIDs(rec.buf.Bytes(), ids)
			check(rec.code == http.StatusOK && ok && sameIDs(ids, q.want))
		}
	}

	// Shard layer, with the engine spans the returned Explain carries.
	// Explain gives each shard's latency and queue wait but not its start,
	// so a shard span is placed at the call's start (the scatter launches
	// every shard at once) and the merge span at the call's end.
	var searchUs, mergeUs, imbalance, queueUs []float64
	var mergeCands, mergeResults int64
	deadline = time.Now().Add(phase / 4)
	for i := 0; i < minCalls || time.Now().Before(deadline); i++ {
		q := &qs[i%len(qs)]
		b0 := time.Now()
		res, ex := ly.x.SearchExplain(q.sphere, q.k)
		b1 := time.Now()
		sid := tr.add("shard.search", b0, b1)
		var maxLat, sumLat float64
		for _, sp := range ex.Shards {
			s1 := b0.Add(time.Duration(sp.LatencyNs))
			eid := tr.addChild("engine.shard", sid, 1+sp.Shard, b0, s1)
			tr.addChild("engine.queue_wait", eid, 1+sp.Shard, b0, b0.Add(time.Duration(sp.QueueWaitNs)))
			queueUs = append(queueUs, float64(sp.QueueWaitNs)/1e3)
			lat := float64(sp.LatencyNs)
			sumLat += lat
			if lat > maxLat {
				maxLat = lat
			}
		}
		tr.addChild("shard.merge", sid, 0, b1.Add(-time.Duration(ex.Merge.LatencyNs)), b1)
		searchUs = append(searchUs, us(b1.Sub(b0)))
		mergeUs = append(mergeUs, float64(ex.Merge.LatencyNs)/1e3)
		if sumLat > 0 {
			imbalance = append(imbalance, maxLat/(sumLat/float64(len(ex.Shards))))
		}
		mergeCands += int64(ex.Merge.Candidates)
		mergeResults += int64(ex.Merge.Results)
		check(sameIDs(sortedIDs(res.Items), q.want))
	}

	// knn layer: one frozen SS-tree over the whole corpus, no pushdown.
	crit := dominance.Hyperbola{}
	var knnUs []float64
	var knnNs, knnItems int64
	deadline = time.Now().Add(phase / 4)
	for i := 0; i < minCalls || time.Now().Before(deadline); i++ {
		q := &qs[i%len(qs)]
		c0 := time.Now()
		res := knn.Search(ly.single, q.sphere, q.k, crit, knn.HS)
		c1 := time.Now()
		tr.add("knn.search", c0, c1)
		knnUs = append(knnUs, us(c1.Sub(c0)))
		knnNs += c1.Sub(c0).Nanoseconds()
		knnItems += int64(res.Stats.Items)
		check(sameIDs(sortedIDs(res.Items), q.want))
	}

	// Dominance layer: replay each query's final-filter triples
	// (Sk, candidate, q), Sk being the k-th candidate of the single-index
	// candidate stream.
	var domChecks, domNs int64
	for i := range qs[:min(len(qs), countQueries)] {
		q := &qs[i]
		cs := knn.SearchCandidates(ly.single, q.sphere, q.k, crit, knn.HS, nil)
		dominated := make([]bool, len(cs.Candidates))
		if len(cs.Candidates) >= q.k {
			sk := cs.Candidates[q.k-1].Item.Sphere
			d0 := time.Now()
			for j, c := range cs.Candidates {
				dominated[j] = crit.Dominates(sk, c.Item.Sphere, q.sphere)
			}
			d1 := time.Now()
			tr.add("dominance.replay", d0, d1)
			domChecks += int64(len(cs.Candidates))
			domNs += d1.Sub(d0).Nanoseconds()
		}
		// The survivors of the replayed filter are the Definition 2 answer.
		ids = ids[:0]
		for j, c := range cs.Candidates {
			if !dominated[j] {
				ids = append(ids, c.Item.ID)
			}
		}
		check(sameIDs(ids, q.want))
	}

	cnt, err := ly.counts(fx)
	if err != nil {
		return t, err
	}
	self := tr.selfTimes()
	tracePath := filepath.Join(fx.dir, "trace.json")
	if err := tr.writeChrome(tracePath); err != nil {
		return t, err
	}

	// Report. Every time is a p50 unless named p99; counts are per query
	// over one pass of the distinct queries.
	nq := float64(cnt.queries)
	loopP50 := median(loop) * 1e3
	handlerP50 := median(handlerUs)
	searchP50 := median(searchUs)
	n := func(xs []float64) string { return fmt.Sprintf("n=%d", len(xs)) }
	pass := fmt.Sprintf("one pass, %d queries", cnt.queries)
	allocs := fmt.Sprintf("median call of %d queries", min(cnt.queries, allocQueries))

	rep.add("hyperdomd.loopback_us.p50", loopP50, "us", fmt.Sprintf("n=%d, 1 conn", len(loop)))
	rep.add("hyperdomd.transport_us.p50", loopP50-handlerP50, "us", "loopback p50 - handler p50")
	if err := addP99(rep, "server.handler_us", handlerUs); err != nil {
		return t, err
	}
	rep.add("server.self_us.p50", handlerP50-searchP50, "us", "handler p50 - shard search p50")
	rep.add("server.allocs_per_req", cnt.serverAllocs, "count", allocs)
	rep.add("server.resp_bytes", float64(respBytes)/float64(2*len(handlerUs)), "bytes", n(handlerUs))
	if err := addP99(rep, "shard.search_us", searchUs); err != nil {
		return t, err
	}
	rep.add("shard.merge_us.p50", median(mergeUs), "us", n(mergeUs))
	rep.add("shard.merge_candidates", float64(mergeCands)/float64(len(searchUs)), "count", n(searchUs))
	rep.add("shard.results_per_candidate", float64(mergeResults)/float64(mergeCands), "ratio", n(searchUs))
	rep.add("shard.imbalance", median(imbalance), "ratio", "max/mean shard span latency, "+n(imbalance))
	rep.add("shard.allocs_per_query", cnt.shardAllocs, "count", allocs)
	rep.add("shard.self_us.p50", median(self["shard.search"]), "us", "search minus shard and merge spans, "+n(self["shard.search"]))
	if err := addP99(rep, "engine.queue_wait_us", queueUs); err != nil {
		return t, err
	}
	rep.add("engine.self_us.p50", median(self["engine.shard"]), "us", "shard span minus queue wait, "+n(self["engine.shard"]))
	rep.add("knn.search_us.p50", median(knnUs), "us", n(knnUs))
	rep.add("knn.search_ns_per_item", float64(knnNs)/float64(knnItems), "ns", n(knnUs))
	rep.add("knn.nodes_per_query", float64(cnt.nodes)/nq, "count", pass)
	rep.add("knn.items_per_query", float64(cnt.items)/nq, "count", pass)
	rep.add("knn.coarse_prune_ratio", float64(cnt.coarse)/float64(cnt.items), "ratio", pass)
	rep.add("knn.allocs_per_search", cnt.knnAllocs, "count", allocs)
	rep.add("dominance.checks_per_query", float64(cnt.domChecks)/nq, "count", pass)
	rep.add("dominance.pruned_per_check", float64(cnt.finalDominated)/float64(cnt.finalChecks), "ratio",
		fmt.Sprintf("final filter, %d triples", cnt.finalChecks))
	rep.add("dominance.check_ns", float64(domNs)/float64(domChecks), "ns", fmt.Sprintf("%d replayed triples", domChecks))
	rep.add("setup.csv_load_s", median(ly.csvLoadS), "s", n(ly.csvLoadS))
	rep.add("setup.build_s", median(ly.buildS), "s", n(ly.buildS))
	rep.add("setup.open_ms", median(ly.openMs), "ms", n(ly.openMs))
	rep.add("packed.snapshot_bytes_per_item", cnt.snapshotBytesPerItem, "bytes", fmt.Sprintf("%d items", len(fx.items)))
	rep.add("runtime.gc_per_kreq", float64(after.NumGC-before.NumGC)/(float64(len(loop))/1e3), "count",
		fmt.Sprintf("%d GCs over %d requests", after.NumGC-before.NumGC, len(loop)))
	rep.add("runtime.heap_mb", float64(after.HeapAlloc)/(1<<20), "MB", "HeapAlloc after the loopback phase")
	rep.add("trace.overhead_us", median(tracedIterUs)-handlerP50, "us", "traced - untraced handler iteration p50, "+n(tracedIterUs))
	rep.note("trace: %d spans written to %s", len(tr.spans), tracePath)
	return t, nil
}

// addP99 reports name.p50 and name.p99 of xs (µs).
func addP99(rep *report, name string, xs []float64) error {
	p99, err := tailQuantile(xs, 0.99)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	n := fmt.Sprintf("n=%d", len(xs))
	rep.add(name+".p50", median(xs), "us", n)
	rep.add(name+".p99", p99, "us", n)
	return nil
}

// memstats is the part of the server's expvar memstats the runtime
// metrics need. /debug/vars reads them live; the hyperdom_runtime_*
// gauges on /metrics refresh only once per timeline tick (10 s).
type memstats struct {
	NumGC     uint32
	HeapAlloc uint64
}

func scrapeMemstats(base string) (memstats, error) {
	var v struct{ Memstats memstats }
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		return v.Memstats, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v.Memstats, fmt.Errorf("GET /debug/vars: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v.Memstats, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return v.Memstats, nil
}
