package shard

import (
	"math"
	"math/rand"
	"testing"
)

// TestSearchExplainMatchesSearch locks the tentpole acceptance criterion:
// SearchExplain's result set is bit-identical to Search over the same
// data, and the trace tree it returns is fully populated — one span per
// shard with the traversal's work and both sides of the distK pushdown,
// plus a merge span whose candidate count equals the per-shard sum.
func TestSearchExplainMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	const d, n, k = 3, 600, 7
	items := randItems(rng, d, n, 2)
	for _, shards := range []int{1, 2, 3} {
		x, err := Build(items, d, Options{Shards: shards, WorkersPerShard: 1})
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 20; q++ {
			sq := randQuery(rng, d, 1)
			plain := x.Search(sq, k)
			res, ex := x.SearchExplain(sq, k)
			sameItems(t, "explain vs plain", res.Items, plain.Items)

			if len(ex.Shards) != shards {
				t.Fatalf("%d shard spans, want %d", len(ex.Shards), shards)
			}
			nodes, scanned, cands := 0, 0, 0
			for i, sp := range ex.Shards {
				if sp.Shard != i {
					t.Fatalf("span %d has shard %d", i, sp.Shard)
				}
				if sp.Items <= 0 {
					t.Fatalf("span %d: items %d", i, sp.Items)
				}
				if sp.LatencyNs <= 0 {
					t.Fatalf("span %d: latency %d", i, sp.LatencyNs)
				}
				if sp.QueueWaitNs <= 0 {
					t.Fatalf("span %d: queue wait %d", i, sp.QueueWaitNs)
				}
				nodes += sp.NodesVisited
				scanned += sp.ItemsScanned
				cands += sp.Candidates
				// A shard only fails to publish a finite local distK when
				// the external bound pruned it before its live list filled
				// — in which case it streamed (nearly) no candidates. A
				// shard with an Inf bound AND a full candidate stream
				// would mean the telemetry plumbing is broken.
				if math.IsInf(float64(sp.BoundPublished), 0) && sp.Candidates >= k {
					t.Fatalf("span %d: published bound not finite with %d candidates", i, sp.Candidates)
				}
				// The observed bound is the CAS-min over every published
				// value, so it can never exceed this shard's own
				// publication.
				if float64(sp.BoundObserved) > float64(sp.BoundPublished) {
					t.Fatalf("span %d: observed %v > published %v",
						i, sp.BoundObserved, sp.BoundPublished)
				}
			}
			if nodes != plain.Stats.NodesVisited || scanned != plain.Stats.Items {
				// Pushdown racing makes per-shard work nondeterministic
				// run to run, but within ONE explain run the span sums
				// must equal what that run's Stats aggregated from the
				// same traversals.
				if nodes != res.Stats.NodesVisited || scanned != res.Stats.Items {
					t.Fatalf("span sums nodes=%d scanned=%d, stats %d/%d",
						nodes, scanned, res.Stats.NodesVisited, res.Stats.Items)
				}
			}
			if ex.Merge.Candidates != cands {
				t.Fatalf("merge candidates %d, shard sum %d", ex.Merge.Candidates, cands)
			}
			if ex.Merge.Results != len(res.Items) {
				t.Fatalf("merge results %d, items %d", ex.Merge.Results, len(res.Items))
			}
			if ex.Merge.LatencyNs <= 0 {
				t.Fatalf("merge latency %d", ex.Merge.LatencyNs)
			}
		}
		x.Close()
	}
}

// TestSearchExplainPushdownDisabled pins the no-pushdown shape: the
// observed bound stays +Inf (there is no shared bound to observe) and the
// JSON layer will render it as null.
func TestSearchExplainPushdownDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	const d, n, k = 2, 300, 5
	x, err := Build(randItems(rng, d, n, 2), d, Options{Shards: 2, WorkersPerShard: 1, DisablePushdown: true})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	_, ex := x.SearchExplain(randQuery(rng, d, 1), k)
	for i, sp := range ex.Shards {
		if !math.IsInf(float64(sp.BoundObserved), 1) {
			t.Fatalf("span %d: observed bound %v with pushdown disabled", i, sp.BoundObserved)
		}
		// Without an external bound nothing can prune a shard early, so
		// every shard (each holding >> k items) publishes a finite local
		// distK.
		if math.IsInf(float64(sp.BoundPublished), 0) {
			t.Fatalf("span %d: published bound not finite without pushdown", i)
		}
	}
}

// TestSearchExplainAllocs locks the request budget now that Search is
// SearchExplain with the tree dropped: per-shard recording is plain scalar
// stores into preallocated slots, so Search costs no more allocations than
// SearchExplain did before the plain path was folded into it — 27 allocs/op
// at 2 shards and 38 at 4 on this fixture.
func TestSearchExplainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	rng := rand.New(rand.NewSource(83))
	const d, n, k = 3, 400, 5
	items := randItems(rng, d, n, 2)
	for _, c := range []struct{ shards, budget int }{{2, 27}, {4, 38}} {
		x, err := Build(items, d, Options{Shards: c.shards, WorkersPerShard: 1})
		if err != nil {
			t.Fatal(err)
		}
		sq := randQuery(rng, d, 1)
		plain := testing.AllocsPerRun(50, func() { x.Search(sq, k) })
		explain := testing.AllocsPerRun(50, func() { x.SearchExplain(sq, k) })
		x.Close()
		if plain > float64(c.budget) || explain > float64(c.budget) {
			t.Errorf("%d shards: Search %v, SearchExplain %v allocs/op, budget %d",
				c.shards, plain, explain, c.budget)
		}
	}
}
