package shard

import (
	"math/rand"
	"sync"
	"testing"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/sstree"
)

func randItems(rng *rand.Rand, d, n int, maxR float64) []geom.Item {
	items := make([]geom.Item, n)
	for i := range items {
		c := make([]float64, d)
		for j := range c {
			c[j] = 100 + rng.NormFloat64()*25
		}
		items[i] = geom.Item{Sphere: geom.NewSphere(c, rng.Float64()*maxR), ID: i}
	}
	return items
}

func randQuery(rng *rand.Rand, d int, maxR float64) geom.Sphere {
	c := make([]float64, d)
	for j := range c {
		c[j] = 100 + rng.NormFloat64()*25
	}
	return geom.NewSphere(c, rng.Float64()*maxR)
}

// singleIndex builds one frozen SS-tree over all items — the oracle every
// sharded answer must match bit for bit.
func singleIndex(items []geom.Item, d int) knn.Index {
	t := sstree.New(d, sstree.WithMaxFill(16))
	for _, it := range items {
		t.Insert(it)
	}
	if len(items) > 0 {
		t.Freeze()
	}
	return knn.WrapSSTree(t)
}

func sameItems(t *testing.T, ctx string, got, want []geom.Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("%s: item %d has ID %d, want %d", ctx, i, got[i].ID, want[i].ID)
		}
	}
}

// TestShardedMatchesSingle locks the acceptance criterion of the
// scatter-gather layer: for every substrate, traversal strategy and
// quantization mode, the sharded result set is bit-identical (same IDs,
// same order) to a single-index search over the same data.
func TestShardedMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	const d, n = 3, 900
	items := randItems(rng, d, n, 3)
	oracle := singleIndex(items, d)
	defer knn.SetQuantMode(knn.SetQuantMode(knn.QuantF32)) // restore on exit
	for _, substrate := range []string{"sstree", "mtree", "rtree"} {
		for _, algo := range []knn.Algorithm{knn.DF, knn.HS} {
			for _, shards := range []int{2, 3, 5} {
				x, err := Build(items, d, Options{
					Shards:          shards,
					WorkersPerShard: 2,
					Substrate:       substrate,
					MaxFill:         16,
					Algorithm:       algo,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, quant := range []knn.QuantMode{knn.QuantNone, knn.QuantF32} {
					knn.SetQuantMode(quant)
					for q := 0; q < 20; q++ {
						sq := randQuery(rng, d, 3)
						k := 1 + rng.Intn(15)
						want := knn.Search(oracle, sq, k, dominance.Hyperbola{}, algo)
						got := x.Search(sq, k)
						ctx := substrate + "/" + algo.String()
						sameItems(t, ctx, got.Items, want.Items)
						if got.K != k {
							t.Fatalf("%s: K = %d, want %d", ctx, got.K, k)
						}
					}
				}
				x.Close()
			}
		}
	}
}

// TestShardedStatsDeterministic pins that with pushdown disabled the
// aggregate Stats — per-shard traversal sums plus the merge layer's final
// filter — are identical across repeated runs of the same query.
func TestShardedStatsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	const d = 3
	items := randItems(rng, d, 600, 3)
	x, err := Build(items, d, Options{
		Shards:          4,
		Substrate:       "sstree",
		Algorithm:       knn.HS,
		DisablePushdown: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for q := 0; q < 10; q++ {
		sq := randQuery(rng, d, 3)
		first := x.Search(sq, 7)
		for rep := 0; rep < 3; rep++ {
			again := x.Search(sq, 7)
			if again.Stats != first.Stats {
				t.Fatalf("query %d: stats %+v then %+v", q, first.Stats, again.Stats)
			}
			sameItems(t, "rerun", again.Items, first.Items)
		}
		if first.Stats.DomChecks == 0 && len(items) > 7 {
			t.Fatalf("query %d: merge filter ran no dominance checks", q)
		}
	}
}

// TestShardedSmallDatabases covers the degenerate shapes: empty dataset,
// fewer items than k, fewer items than shards.
func TestShardedSmallDatabases(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	const d = 2
	for _, n := range []int{0, 1, 3, 7} {
		items := randItems(rng, d, n, 2)
		x, err := Build(items, d, Options{Shards: 4, Algorithm: knn.HS})
		if err != nil {
			t.Fatal(err)
		}
		oracle := singleIndex(items, d)
		for q := 0; q < 5; q++ {
			sq := randQuery(rng, d, 2)
			k := 1 + rng.Intn(10)
			want := knn.Search(oracle, sq, k, dominance.Hyperbola{}, knn.HS)
			got := x.Search(sq, k)
			sameItems(t, "small", got.Items, want.Items)
		}
		x.Close()
	}
}

// TestShardedHugeK pins that a k far beyond the item count — one request
// once made the gather heap allocate k slots and killed the process — costs
// no more than k = n and answers the same: every candidate.
func TestShardedHugeK(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	const d, n = 4, 200
	items := randItems(rng, d, n, 2)
	x, err := Build(items, d, Options{Shards: 2, Algorithm: knn.HS})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for q := 0; q < 5; q++ {
		sq := randQuery(rng, d, 2)
		want := x.Search(sq, n)
		got := x.Search(sq, 1<<40)
		if got.K != 1<<40 {
			t.Fatalf("K = %d, want %d", got.K, 1<<40)
		}
		sameItems(t, "huge k", got.Items, want.Items)
	}
}

// TestPartitionBalance pins the planner's contract: shards differ in size
// by at most the rounding slack of the recursive proportional cuts, are
// disjoint, and cover every item.
func TestPartitionBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for _, n := range []int{1, 10, 1000, 4096} {
		for _, shards := range []int{1, 2, 3, 7, 8} {
			items := randItems(rng, 4, n, 1)
			parts, plan := partition(items, 4, shards, 256)
			if plan == nil {
				t.Fatalf("n=%d shards=%d: nil plan", n, shards)
			}
			if len(parts) != shards {
				t.Fatalf("n=%d shards=%d: got %d parts", n, shards, len(parts))
			}
			seen := make(map[int]bool, n)
			lo, hi := n, 0
			for _, p := range parts {
				if len(p) < lo {
					lo = len(p)
				}
				if len(p) > hi {
					hi = len(p)
				}
				for _, it := range p {
					if seen[it.ID] {
						t.Fatalf("n=%d shards=%d: item %d in two shards", n, shards, it.ID)
					}
					seen[it.ID] = true
				}
			}
			if len(seen) != n {
				t.Fatalf("n=%d shards=%d: covered %d items", n, shards, len(seen))
			}
			if n >= shards && hi-lo > shards {
				t.Fatalf("n=%d shards=%d: shard sizes range [%d, %d]", n, shards, lo, hi)
			}
		}
	}
}

// TestShardedConcurrentQueries hammers one sharded index from many
// goroutines with pushdown enabled — under -race this is the detector run
// for the shared knn.Bound traffic — and checks every answer against the
// single-index oracle.
func TestShardedConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	const d, n = 3, 800
	items := randItems(rng, d, n, 3)
	oracle := singleIndex(items, d)
	x, err := Build(items, d, Options{Shards: 4, WorkersPerShard: 2, Algorithm: knn.HS})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	type cq struct {
		sq geom.Sphere
		k  int
	}
	queries := make([]cq, 64)
	want := make([]knn.Result, len(queries))
	for i := range queries {
		queries[i] = cq{randQuery(rng, d, 3), 1 + rng.Intn(12)}
		want[i] = knn.Search(oracle, queries[i].sq, queries[i].k, dominance.Hyperbola{}, knn.HS)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += 8 {
				got := x.Search(queries[i].sq, queries[i].k)
				if len(got.Items) != len(want[i].Items) {
					t.Errorf("query %d: %d items, want %d", i, len(got.Items), len(want[i].Items))
					return
				}
				for j := range got.Items {
					if got.Items[j].ID != want[i].Items[j].ID {
						t.Errorf("query %d: item %d mismatch", i, j)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestBuildRejectsBadOptions pins the Build validation surface.
func TestBuildRejectsBadOptions(t *testing.T) {
	if _, err := Build(nil, 0, Options{}); err == nil {
		t.Fatal("dim 0 accepted")
	}
	if _, err := Build(nil, 2, Options{Substrate: "btree"}); err == nil {
		t.Fatal("unknown substrate accepted")
	}
}
