package knn

import (
	"math/rand"
	"testing"

	"hyperdom/internal/dominance"
	"hyperdom/internal/obs"
)

// TestObsSearchCounters verifies the traversal accounting: a tree search
// publishes its Stats and heap tallies into the registry, attributed to the
// right substrate, and publishes nothing while the gate is off. The
// registry is zeroed up front (obs.ResetForTest) so the assertions read
// absolute values instead of diffing snapshots.
func TestObsSearchCounters(t *testing.T) {
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)

	rng := rand.New(rand.NewSource(99))
	items := randItems(rng, 4, 800, 2)
	idx := index(items, 4)
	q := randQuery(rng, 4, 1)

	const searches = 5
	obs.ResetForTest()
	var res Result
	for i := 0; i < searches; i++ {
		res = Search(idx, q, 10, dominance.Hyperbola{}, HS)
	}
	got := obs.Snapshot()

	if got := got.Get("knn.searches"); got != searches {
		t.Errorf("knn.searches = %d, want %d", got, searches)
	}
	if got := got.Get("knn.searches.sstree"); got != searches {
		t.Errorf("knn.searches.sstree = %d, want %d", got, searches)
	}
	// The last search's Stats are a lower bound on the accumulated totals.
	if got := got.Get("knn.nodes_visited"); got < uint64(res.Stats.NodesVisited) {
		t.Errorf("knn.nodes_visited = %d, below one search's %d", got, res.Stats.NodesVisited)
	}
	if got := got.Get("knn.items_scanned"); got < uint64(res.Stats.Items) {
		t.Errorf("knn.items_scanned = %d, below one search's %d", got, res.Stats.Items)
	}
	if got := got.Get("knn.dom_checks"); got < uint64(res.Stats.DomChecks) {
		t.Errorf("knn.dom_checks = %d, below one search's %d", got, res.Stats.DomChecks)
	}
	if got.Get("knn.heap_pushes") == 0 || got.Get("knn.heap_pops") == 0 {
		t.Errorf("heap tallies did not move: pushes=%d pops=%d",
			got.Get("knn.heap_pushes"), got.Get("knn.heap_pops"))
	}

	obs.SetEnabled(false)
	obs.ResetForTest()
	Search(idx, q, 10, dominance.Hyperbola{}, HS)
	if moved := obs.Snapshot().Diff(obs.Snap{}); len(moved) != 0 {
		t.Errorf("counters moved while disabled: %v", moved)
	}
}

// TestObsSearchLatency verifies the per-search latency observability: each
// search records exactly one sample into the histogram instance of its
// (substrate, strategy) pair, and obs.Requests retains the search as a
// root whose one child span carries its labels and counters.
func TestObsSearchLatency(t *testing.T) {
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)

	rng := rand.New(rand.NewSource(42))
	items := randItems(rng, 4, 600, 2)
	idx := index(items, 4)
	q := randQuery(rng, 4, 1)

	const searches = 7
	obs.ResetForTest()
	var res Result
	for i := 0; i < searches; i++ {
		res = Search(idx, q, 10, dominance.Hyperbola{}, HS)
	}
	Search(idx, q, 10, dominance.Hyperbola{}, DF)

	merged := obs.MergedHist("knn.search_latency")
	if merged.Count != searches+1 {
		t.Errorf("knn.search_latency holds %d samples, want %d", merged.Count, searches+1)
	}
	if merged.Quantile(0.5) <= 0 {
		t.Error("median search latency is not positive")
	}
	hs := obs.GetOrNewHistogram("knn.search_latency", `substrate="sstree",algo="HS"`).Snap()
	if hs.Count != searches {
		t.Errorf(`sstree/HS instance holds %d samples, want %d`, hs.Count, searches)
	}
	df := obs.GetOrNewHistogram("knn.search_latency", `substrate="sstree",algo="DF"`).Snap()
	if df.Count != 1 {
		t.Errorf(`sstree/DF instance holds %d samples, want 1`, df.Count)
	}

	dump := obs.Requests.Dump()
	if len(dump) != searches+1 {
		t.Fatalf("Requests ring retains %d searches, want %d", len(dump), searches+1)
	}
	for _, r := range dump {
		if r.Endpoint != "knn.Search" || r.K != 10 || len(r.Shards) != 1 {
			t.Fatalf("bare-search root = %+v, want knn.Search, k 10, one child span", r)
		}
		if sp := r.Shards[0]; sp.Substrate != "sstree" || (sp.Algo != "HS" && sp.Algo != "DF") {
			t.Errorf("search span labels = (%q, %q), want sstree and HS or DF", sp.Substrate, sp.Algo)
		}
		if r.LatencyNs <= 0 || r.WhenUnixNs <= 0 || r.Shards[0].LatencyNs != r.LatencyNs {
			t.Errorf("root timing not positive or not the child's: %+v", r)
		}
	}
	// HS runs of the same query are deterministic, so some span carries
	// the last run's exact counters.
	var matched bool
	for _, r := range dump {
		sp := r.Shards[0]
		if sp.Algo == "HS" && sp.NodesVisited == res.Stats.NodesVisited &&
			sp.ItemsScanned == res.Stats.Items && sp.DomChecks == res.Stats.DomChecks &&
			sp.Pruned == res.Stats.Pruned {
			matched = true
			break
		}
	}
	if !matched {
		t.Errorf("no search span matches the last search's Stats %+v", res.Stats)
	}

	// Gate off: no latency samples, no roots.
	obs.SetEnabled(false)
	obs.ResetForTest()
	Search(idx, q, 10, dominance.Hyperbola{}, HS)
	if n := obs.MergedHist("knn.search_latency").Count; n != 0 {
		t.Errorf("search_latency recorded %d samples with the gate off", n)
	}
	if dump := obs.Requests.Dump(); len(dump) != 0 {
		t.Errorf("Requests ring admitted %d searches with the gate off", len(dump))
	}
}

// TestObsBruteForceCounters checks the non-tree path publishes too,
// including its latency histogram instance and its root span.
func TestObsBruteForceCounters(t *testing.T) {
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)

	rng := rand.New(rand.NewSource(7))
	items := randItems(rng, 3, 200, 2)
	q := randQuery(rng, 3, 1)

	obs.ResetForTest()
	res := BruteForce(items, q, 5, dominance.Hyperbola{})
	got := obs.Snapshot()

	if got := got.Get("knn.brute_force_searches"); got != 1 {
		t.Errorf("knn.brute_force_searches = %d, want 1", got)
	}
	if got := got.Get("knn.items_scanned"); got != uint64(res.Stats.Items) {
		t.Errorf("knn.items_scanned = %d, want %d", got, res.Stats.Items)
	}
	if n := obs.GetOrNewHistogram("knn.search_latency", `substrate="brute",algo="scan"`).Snap().Count; n != 1 {
		t.Errorf("brute-force latency instance holds %d samples, want 1", n)
	}
	dump := obs.Requests.Dump()
	if len(dump) != 1 || dump[0].Endpoint != "knn.BruteForce" || dump[0].K != 5 ||
		dump[0].Shards[0].Substrate != "brute" || dump[0].Shards[0].Algo != "scan" ||
		dump[0].Shards[0].ItemsScanned != res.Stats.Items {
		t.Errorf("brute-force root wrong: %+v", dump)
	}
}
