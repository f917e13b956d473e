package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"hyperdom/internal/dataset"
	"hyperdom/internal/dominance"
	"hyperdom/internal/knn"
	"hyperdom/internal/obs"
	"hyperdom/internal/server"
	"hyperdom/internal/shard"
)

// layers is the serving stack rebuilt in this process for the traced run:
// each field is one layer's public entry point, called directly from the
// benchmark so no tracing has to live inside the program.
type layers struct {
	x       *shard.Index // the serving index, built or opened as hyperdomd would
	single  knn.Index    // one frozen SS-tree over the whole corpus
	srv     *server.Server
	h       http.Handler
	snapDir string

	csvLoadS, buildS, openMs []float64 // set-up timings, one per repetition
	snapshotBytes            int64
}

// newLayers times the set-up entry points reps times each — CSV load,
// shard.Build, and shard.OpenDir of the built index saved with SaveDir —
// and mounts the index the workload serves from (opened for snapshot
// workloads, built otherwise) behind an in-process server.Server.
func newLayers(fx *fixture, reps int) (*layers, error) {
	obs.SetEnabled(true) // hyperdomd serves with the obs stack on
	ly := &layers{snapDir: filepath.Join(fx.dir, "traced-snapshot")}
	for r := 0; r < reps; r++ {
		f, err := os.Open(fx.csvPath)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		items, err := dataset.LoadCSV(f)
		ly.csvLoadS = append(ly.csvLoadS, time.Since(t0).Seconds())
		f.Close()
		if err != nil {
			return nil, err
		}
		if len(items) != len(fx.items) {
			return nil, fmt.Errorf("LoadCSV: %d items, wrote %d", len(items), len(fx.items))
		}
	}

	var built *shard.Index
	for r := 0; r < reps; r++ {
		if built != nil {
			built.Close()
		}
		t0 := time.Now()
		x, err := shard.Build(fx.items, fx.w.dim, servingOptions("default"))
		if err != nil {
			return nil, err
		}
		ly.buildS = append(ly.buildS, time.Since(t0).Seconds())
		built = x
	}
	if err := built.SaveDir(ly.snapDir); err != nil {
		built.Close()
		return nil, err
	}
	ents, err := os.ReadDir(ly.snapDir)
	if err != nil {
		built.Close()
		return nil, err
	}
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			built.Close()
			return nil, err
		}
		ly.snapshotBytes += fi.Size()
	}

	var opened *shard.Index
	for r := 0; r < reps; r++ {
		if opened != nil {
			opened.Close()
		}
		t0 := time.Now()
		x, err := shard.OpenDir(ly.snapDir, shard.OpenOptions{Algorithm: knn.HS, Label: "default"})
		if err != nil {
			built.Close()
			return nil, err
		}
		ly.openMs = append(ly.openMs, float64(time.Since(t0).Nanoseconds())/1e6)
		opened = x
	}
	if fx.w.snapshot {
		ly.x = opened
		built.Close()
	} else {
		ly.x = built
		opened.Close()
	}

	fx.oracleTree.Freeze()
	ly.single = knn.WrapSSTree(fx.oracleTree)
	ly.srv = server.New()
	if err := ly.srv.AddCollection("default", ly.x); err != nil {
		ly.x.Close()
		return nil, err
	}
	ly.h = ly.srv.Handler()
	return ly, nil
}

// close stops the index's engine pools (the server owns the index).
func (ly *layers) close() { ly.srv.Close() }

// recorder is a minimal http.ResponseWriter for calling the handler in
// process. It is reused across calls so that its own buffer growth stays
// out of the handler's time and allocation counts.
type recorder struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func newRecorder() *recorder { return &recorder{h: http.Header{}} }

func (r *recorder) Header() http.Header { return r.h }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.buf.Write(b)
}

func (r *recorder) reset() {
	clear(r.h)
	r.code = 0
	r.buf.Reset()
}

func newKNNRequest(q *query) *http.Request {
	req, err := http.NewRequest(http.MethodPost, "http://perfbench/v1/collections/default/knn", bytes.NewReader(q.body))
	if err != nil {
		panic(err) // constant method and URL
	}
	return req
}

// countQueries caps the queries the count passes replay, and
// allocQueries those the allocation passes replay: enough for a per-query
// mean and a median call, and a bounded share of the run.
const (
	countQueries = 300
	allocQueries = 100
)

// counts are the traced run's deterministic figures, from one pass over
// the first countQueries queries: work on the single index, the
// final-filter replay, and allocations per call. The same seed gives the same counts
// (counts_test.go).
type counts struct {
	queries                         int
	nodes, items, domChecks, coarse int64
	// Final Definition 2 filter over the single-index candidate stream:
	// triples replayed and how many of them Sk dominated.
	finalChecks, finalDominated          int64
	knnAllocs, shardAllocs, serverAllocs float64
	snapshotBytesPerItem                 float64
}

// counts measures over an index opened from the snapshot with pushdown
// off: pushdown makes the per-shard work, and with it the allocations,
// depend on which shard answers first. Allocations are counted with the
// collector paused so pooled buffers are not dropped mid-pass.
func (ly *layers) counts(fx *fixture) (counts, error) {
	cq := fx.queries[:min(len(fx.queries), countQueries)]
	c := counts{queries: len(cq)}
	crit := dominance.Hyperbola{}
	for i := range cq {
		q := &cq[i]
		res := knn.Search(ly.single, q.sphere, q.k, crit, knn.HS)
		c.nodes += int64(res.Stats.NodesVisited)
		c.items += int64(res.Stats.Items)
		c.domChecks += int64(res.Stats.DomChecks)
		cs := knn.SearchCandidates(ly.single, q.sphere, q.k, crit, knn.HS, nil)
		c.coarse += int64(cs.CoarsePrunes)
		if len(cs.Candidates) >= q.k {
			sk := cs.Candidates[q.k-1].Item.Sphere
			for _, cand := range cs.Candidates {
				if crit.Dominates(sk, cand.Item.Sphere, q.sphere) {
					c.finalDominated++
				}
			}
			c.finalChecks += int64(len(cs.Candidates))
		}
	}
	c.snapshotBytesPerItem = float64(ly.snapshotBytes) / float64(len(fx.items))

	x, err := shard.OpenDir(ly.snapDir, shard.OpenOptions{Algorithm: knn.HS, Label: "counts", DisablePushdown: true})
	if err != nil {
		return c, err
	}
	srv := server.New()
	defer srv.Close()
	if err := srv.AddCollection("default", x); err != nil {
		x.Close()
		return c, err
	}
	h := srv.Handler()
	rec := newRecorder()
	qs := cq[:min(len(cq), allocQueries)]
	reqs := make([]*http.Request, len(qs))
	newReqs := func() {
		for j := range reqs {
			reqs[j] = newKNNRequest(&qs[j])
		}
	}
	c.knnAllocs = allocsPerCall(len(qs), nil, func(i int) {
		knn.Search(ly.single, qs[i].sphere, qs[i].k, crit, knn.HS)
	})
	c.shardAllocs = allocsPerCall(len(qs), nil, func(i int) {
		x.SearchExplain(qs[i].sphere, qs[i].k)
	})
	c.serverAllocs = allocsPerCall(len(qs), newReqs, func(i int) {
		rec.reset()
		h.ServeHTTP(rec, reqs[i])
	})
	return c, nil
}

// allocsPerCall returns the heap allocations of a typical call of
// f(0..n-1): the median over calls of each call's least count over three
// rounds of a warm-up pass and a counted pass. The least count drops
// allocations the runtime makes for itself now and then; the median drops
// the rare call that allocates once more in one process than in another
// (the count must repeat exactly across runs of one seed). Everything runs
// on one P and each counted pass with the collector paused: a sync.Pool hit
// depends on the P a goroutine runs on, and a collection empties the
// pools. prep, when non-nil, runs before every pass, outside the counts.
func allocsPerCall(n int, prep func(), f func(i int)) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := make([]float64, n)
	var a, b runtime.MemStats
	for round := 0; round < 3; round++ {
		runtime.GC() // the previous counted pass's garbage
		if prep != nil {
			prep()
		}
		for i := 0; i < n; i++ {
			f(i)
		}
		if prep != nil {
			prep()
		}
		old := debug.SetGCPercent(-1)
		for i := 0; i < n; i++ {
			runtime.ReadMemStats(&a)
			f(i)
			runtime.ReadMemStats(&b)
			if m := float64(b.Mallocs - a.Mallocs); round == 0 || m < least[i] {
				least[i] = m
			}
		}
		debug.SetGCPercent(old)
	}
	return median(least)
}
