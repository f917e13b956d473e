package engine

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/obs"
	"hyperdom/internal/rtree"
	"hyperdom/internal/sstree"
)

func randItems(rng *rand.Rand, d, n int) []geom.Item {
	items := make([]geom.Item, n)
	for i := range items {
		c := make([]float64, d)
		for j := range c {
			c[j] = rng.NormFloat64() * 20
		}
		items[i] = geom.Item{ID: i, Sphere: geom.NewSphere(c, rng.Float64()*3)}
	}
	return items
}

func randQueries(rng *rand.Rand, d, n int) []geom.Sphere {
	qs := make([]geom.Sphere, n)
	for i := range qs {
		c := make([]float64, d)
		for j := range c {
			c[j] = rng.NormFloat64() * 20
		}
		qs[i] = geom.NewSphere(c, rng.Float64()*2)
	}
	return qs
}

// TestEngineMatchesSequential: the engine is a scheduler, not a different
// algorithm — every batch result must equal the direct knn.Search answer,
// items and stats, frozen or not, on sphere- and rect-bounded substrates.
func TestEngineMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	d := 5
	items := randItems(rng, d, 3000)
	queries := randQueries(rng, d, 60)

	ss := sstree.New(d)
	rt := rtree.New(d)
	for _, it := range items {
		ss.Insert(it)
		rt.Insert(it)
	}
	for _, frozen := range []bool{false, true} {
		if frozen {
			ss.Freeze()
			rt.Freeze()
		}
		for _, tc := range []struct {
			name string
			idx  knn.Index
		}{
			{"sstree", knn.WrapSSTree(ss)},
			{"rtree", knn.WrapRTree(rt)},
		} {
			for _, algo := range []knn.Algorithm{knn.DF, knn.HS} {
				e := New(tc.idx, WithWorkers(4), WithAlgorithm(algo))
				got := e.SearchBatch(queries, 8)
				e.Close()
				for i, sq := range queries {
					want := knn.Search(tc.idx, sq, 8, dominance.Hyperbola{}, algo)
					if !reflect.DeepEqual(got[i].Items, want.Items) || got[i].Stats != want.Stats {
						t.Fatalf("%s frozen=%v algo=%v query %d: engine result differs", tc.name, frozen, algo, i)
					}
				}
			}
		}
	}
}

// TestEngineBackpressure: a single slow worker with a minimal queue must
// still complete a batch far larger than the queue — submission blocks
// instead of dropping or growing without bound.
func TestEngineBackpressure(t *testing.T) {
	rng := rand.New(rand.NewSource(602))
	d := 3
	items := randItems(rng, d, 400)
	ss := sstree.New(d)
	for _, it := range items {
		ss.Insert(it)
	}
	ss.Freeze()
	e := New(knn.WrapSSTree(ss), WithWorkers(1))
	defer e.Close()
	queries := randQueries(rng, d, 50*queueDepthPerWorker)
	res := e.SearchBatch(queries, 5)
	if len(res) != len(queries) {
		t.Fatalf("batch returned %d results for %d queries", len(res), len(queries))
	}
	for i, r := range res {
		if r.K != 5 {
			t.Fatalf("result %d: K = %d, not filled in", i, r.K)
		}
	}
}

// TestEngineConcurrentBatches drives several batches from concurrent
// goroutines through one pool (run under -race in CI) and checks each gets
// its own correct, complete answer set.
func TestEngineConcurrentBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(603))
	d := 4
	items := randItems(rng, d, 1500)
	ss := sstree.New(d)
	for _, it := range items {
		ss.Insert(it)
	}
	ss.Freeze()
	idx := knn.WrapSSTree(ss)
	e := New(idx, WithWorkers(4))
	defer e.Close()

	const callers = 6
	batches := make([][]geom.Sphere, callers)
	for i := range batches {
		batches[i] = randQueries(rng, d, 40)
	}
	results := make([][]knn.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = e.SearchBatch(batches[i], 6)
		}(i)
	}
	wg.Wait()
	for i := range batches {
		for j, sq := range batches[i] {
			want := knn.Search(idx, sq, 6, dominance.Hyperbola{}, knn.HS)
			if !reflect.DeepEqual(results[i][j].Items, want.Items) {
				t.Fatalf("caller %d query %d: concurrent batch result differs", i, j)
			}
		}
	}
}

// TestEngineObs verifies the saturation metrics: submitted == completed ==
// batch size after a batch drains, workers is the pool size, and
// engine.queue_wait holds one sample per query.
func TestEngineObs(t *testing.T) {
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)

	rng := rand.New(rand.NewSource(604))
	d := 3
	items := randItems(rng, d, 500)
	ss := sstree.New(d)
	for _, it := range items {
		ss.Insert(it)
	}
	ss.Freeze()

	obs.ResetForTest()
	e := New(knn.WrapSSTree(ss), WithWorkers(3))
	queries := randQueries(rng, d, 37)
	e.SearchBatch(queries, 4)
	e.Search(queries[0], 4)
	e.Close()

	snap := obs.Snapshot()
	wantSubmitted := uint64(len(queries) + 1)
	if got := snap.Get("engine.submitted"); got != wantSubmitted {
		t.Errorf("engine.submitted = %d, want %d", got, wantSubmitted)
	}
	if got := snap.Get("engine.completed"); got != wantSubmitted {
		t.Errorf("engine.completed = %d, want %d", got, wantSubmitted)
	}
	if got := snap.Get("engine.batches"); got != 1 {
		t.Errorf("engine.batches = %d, want 1", got)
	}
	if got := snap.Get("engine.workers"); got != 3 {
		t.Errorf("engine.workers = %d, want 3", got)
	}
	if got := snap.Get("engine.pools_started"); got != 1 {
		t.Errorf("engine.pools_started = %d, want 1", got)
	}
	if hist := obs.MergedHist("engine.queue_wait"); hist.Count != wantSubmitted {
		t.Errorf("engine.queue_wait samples = %d, want %d", hist.Count, wantSubmitted)
	}
	// The engine routes through knn.Search, so the per-search accounting
	// (counters, latency histograms, the Requests ring) keeps working.
	if got := snap.Get("knn.searches"); got != wantSubmitted {
		t.Errorf("knn.searches = %d, want %d", got, wantSubmitted)
	}
	if got := snap.Get("knn.searches.packed"); got != wantSubmitted {
		t.Errorf("knn.searches.packed = %d, want %d", got, wantSubmitted)
	}

	// Nothing moves while the gate is off.
	obs.SetEnabled(false)
	obs.ResetForTest()
	e2 := New(knn.WrapSSTree(ss), WithWorkers(2))
	e2.SearchBatch(queries[:5], 4)
	e2.Close()
	if moved := obs.Snapshot().Diff(obs.Snap{}); len(moved) != 0 {
		t.Errorf("counters moved while disabled: %v", moved)
	}
}

// TestEngineAllocs pins the per-query allocation cost of the engine path:
// the fixed scaffolding (results slice, waitgroup, channel sends) plus the
// per-query answer slices, nothing proportional to tree size.
func TestEngineAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	rng := rand.New(rand.NewSource(605))
	d := 8
	items := randItems(rng, d, 5000)
	ss := sstree.New(d)
	for _, it := range items {
		ss.Insert(it)
	}
	ss.Freeze()
	e := New(knn.WrapSSTree(ss), WithWorkers(2))
	defer e.Close()
	queries := randQueries(rng, d, 16)
	e.SearchBatch(queries, 10) // warm worker arenas
	allocs := testing.AllocsPerRun(16, func() {
		e.SearchBatch(queries, 10)
	})
	// Budget mirrors TestSearchBatchAllocs: per-query answer allocations
	// plus fixed batch scaffolding.
	budget := float64(len(queries)*8 + 8)
	if allocs > budget {
		t.Errorf("%.1f allocs per %d-query batch, budget %.0f", allocs, len(queries), budget)
	}
}

func TestEngineEmptyBatchAndPanics(t *testing.T) {
	ss := sstree.New(2)
	ss.Insert(geom.Item{ID: 1, Sphere: geom.NewSphere([]float64{0, 0}, 1)})
	e := New(knn.WrapSSTree(ss), WithWorkers(1))
	defer e.Close()
	if res := e.SearchBatch(nil, 3); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
	defer func() {
		if recover() == nil {
			t.Error("k=0 batch did not panic")
		}
	}()
	e.SearchBatch(randQueries(rand.New(rand.NewSource(1)), 2, 1), 0)
}

// TestTaskTelemetry pins the per-task queue-wait plumbing (ISSUE 8): a
// caller-supplied TaskTelemetry is filled with a positive queue wait even
// when the process-wide obs gate is off, and passing nil stays valid.
func TestTaskTelemetry(t *testing.T) {
	// Force the gate off: the telemetry contract is specifically that it
	// works without process-wide obs.
	was := obs.On()
	obs.SetEnabled(false)
	defer obs.SetEnabled(was)
	rng := rand.New(rand.NewSource(604))
	d := 3
	items := randItems(rng, d, 800)
	ss := sstree.New(d)
	for _, it := range items {
		ss.Insert(it)
	}
	ss.Freeze()
	e := New(knn.WrapSSTree(ss), WithWorkers(1))
	defer e.Close()

	q := randQueries(rng, d, 1)[0]
	var tt TaskTelemetry
	cs := e.SearchCandidates(q, 5, nil, &tt)
	if tt.QueueWaitNs <= 0 {
		t.Fatalf("queue wait %d, want > 0 (obs off)", tt.QueueWaitNs)
	}
	if len(cs.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	// nil telemetry must keep working and return the same stream.
	cs2 := e.SearchCandidates(q, 5, nil, nil)
	if !reflect.DeepEqual(cs.Candidates, cs2.Candidates) {
		t.Fatal("telemetry changed the candidate stream")
	}
}
