package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// requestTimeout bounds one request; a slower answer counts as failed.
const requestTimeout = 5 * time.Second

// loader drives one hyperdomd over loopback with a fixed number of
// keep-alive connections and checks every answer against the oracle. Each
// connection writes pre-encoded HTTP/1.1 requests and parses responses
// with http.ReadResponse — no client transport, so the load generator
// spends as little of the shared CPU as it can.
type loader struct {
	addr    string
	conns   int
	queries []query
	reqs    [][]byte // raw HTTP request per query

	next      atomic.Uint64 // round-robin cursor over queries
	attempted atomic.Int64
	failed    atomic.Int64
	wrong     atomic.Int64 // subset of failed: 200 with a wrong answer
	checked   []atomic.Bool
}

func newLoader(addr string, conns int, qs []query) *loader {
	l := &loader{addr: addr, conns: conns, queries: qs, checked: make([]atomic.Bool, len(qs))}
	for i := range qs {
		head := fmt.Sprintf("POST /v1/collections/default/knn HTTP/1.1\r\nHost: %s\r\n"+
			"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n", addr, len(qs[i].body))
		l.reqs = append(l.reqs, append([]byte(head), qs[i].body...))
	}
	return l
}

// worker is one connection and its reusable buffers.
type worker struct {
	c   net.Conn
	br  *bufio.Reader
	buf bytes.Buffer
	ids []int
}

func (wk *worker) close() {
	if wk.c != nil {
		wk.c.Close()
		wk.c = nil
	}
}

// roundTrip sends one raw request and reads the response body into wk.buf.
// Any error drops the connection; the next request redials.
func (wk *worker) roundTrip(addr string, req []byte) (int, error) {
	if wk.c == nil {
		c, err := net.DialTimeout("tcp", addr, requestTimeout)
		if err != nil {
			return 0, err
		}
		wk.c = c
		wk.br = bufio.NewReaderSize(c, 64<<10)
	}
	if err := wk.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		wk.close()
		return 0, err
	}
	if _, err := wk.c.Write(req); err != nil {
		wk.close()
		return 0, err
	}
	resp, err := http.ReadResponse(wk.br, nil)
	if err != nil {
		wk.close()
		return 0, err
	}
	wk.buf.Reset()
	_, err = wk.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		wk.close()
	}
	return resp.StatusCode, err
}

// do sends query qi once and reports whether it succeeded: a 200 whose
// answer IDs equal the oracle's. Non-200s, transport errors, timeouts and
// wrong answers all count as failures.
func (l *loader) do(wk *worker, qi int) bool {
	l.attempted.Add(1)
	status, err := wk.roundTrip(l.addr, l.reqs[qi])
	if err != nil || status != http.StatusOK {
		l.failed.Add(1)
		return false
	}
	var ok bool
	wk.ids, ok = parseIDs(wk.buf.Bytes(), wk.ids)
	if !ok || !sameIDs(wk.ids, l.queries[qi].want) {
		l.failed.Add(1)
		l.wrong.Add(1)
		return false
	}
	l.checked[qi].Store(true)
	return true
}

func (l *loader) nextQuery() int {
	return int((l.next.Add(1) - 1) % uint64(len(l.queries)))
}

// samples collects one phase's latencies in completion order.
type samples struct {
	mu  sync.Mutex
	lat []float64 // ms; failures are +Inf
}

func (s *samples) add(ms float64, ok bool) {
	if !ok {
		ms = math.Inf(1)
	}
	s.mu.Lock()
	s.lat = append(s.lat, ms)
	s.mu.Unlock()
}

// closedLoop runs l.conns callers that each send their next request as
// soon as the previous answer arrives, for d. It returns the latencies and
// the successful requests per second.
func (l *loader) closedLoop(d time.Duration) ([]float64, float64) {
	var s samples
	var ok atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < l.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var wk worker
			defer wk.close()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				good := l.do(&wk, l.nextQuery())
				s.add(float64(time.Since(t0).Nanoseconds())/1e6, good)
				if good {
					ok.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return s.lat, float64(ok.Load()) / time.Since(start).Seconds()
}

// openLoop sends requests on a fixed schedule of rate per second for d,
// regardless of how fast answers come back, over l.conns connections.
// Each latency is timed from the request's intended send time, so a stall
// is charged to every request it delays (no coordinated omission). It
// returns the latencies and how late (ms) the generator dispatched each
// request.
func (l *loader) openLoop(rate float64, d time.Duration) (lat, late []float64) {
	total := int(rate * d.Seconds())
	type job struct {
		qi  int
		due time.Time
	}
	// Sized to the number of sends: the schedule never blocks on workers.
	jobs := make(chan job, total)
	var s samples
	var wg sync.WaitGroup
	for c := 0; c < l.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var wk worker
			defer wk.close()
			for j := range jobs {
				good := l.do(&wk, j.qi)
				s.add(float64(time.Since(j.due).Nanoseconds())/1e6, good)
			}
		}()
	}
	late = make([]float64, 0, total)
	// The schedule sleeps in nanosleep on its own thread: a runtime timer
	// rounds sub-millisecond waits up to the next millisecond when every P
	// is idle, which would make the generator, not the server, set the
	// open-loop latencies. One P beyond the core count lets the woken
	// schedule run at once instead of queueing behind the workers for a P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	interval := float64(time.Second) / rate
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if wait := time.Until(due); wait > 0 {
			ts := syscall.NsecToTimespec(wait.Nanoseconds())
			_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait; lateness is measured
		}
		late = append(late, float64(time.Since(due).Nanoseconds())/1e6)
		jobs <- job{qi: l.nextQuery(), due: due}
	}
	close(jobs)
	wg.Wait()
	return s.lat, late
}

// uncovered counts queries never answered correctly in this run.
func (l *loader) uncovered() int {
	n := 0
	for i := range l.checked {
		if !l.checked[i].Load() {
			n++
		}
	}
	return n
}
