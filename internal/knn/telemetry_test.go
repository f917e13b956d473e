package knn

import (
	"math"
	"math/rand"
	"testing"

	"hyperdom/internal/dominance"
	"hyperdom/internal/obs"
	"hyperdom/internal/sstree"
)

// TestCandidateSetTelemetry pins the per-shard request-telemetry scalars
// (ISSUE 8) a candidate search returns alongside its stream: both sides of
// the distK pushdown, coarse-prune counts under a quantized tier, and the
// trace linkage ID when the traversal was sampled.
func TestCandidateSetTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	items := randItems(rng, 3, 600, 3)
	idx := index(items, 3)
	sq := randQuery(rng, 3, 2)
	const k = 6
	crit := dominance.Hyperbola{}

	// No external bound: nothing to observe (Inf → JSON null downstream),
	// but the local distK is still published for the explain tree.
	cs := SearchCandidates(idx, sq, k, crit, HS, nil)
	if !math.IsInf(cs.BoundObserved, 1) {
		t.Fatalf("nil ext: observed bound %v, want +Inf", cs.BoundObserved)
	}
	if math.IsInf(cs.BoundPublished, 0) || cs.BoundPublished <= 0 {
		t.Fatalf("nil ext: published bound %v, want finite positive", cs.BoundPublished)
	}
	if cs.CoarsePrunes != 0 {
		t.Fatalf("unfrozen index reported %d coarse prunes", cs.CoarsePrunes)
	}

	// A seeded external bound must surface as observed ≤ seed (the CAS-min
	// can only tighten further).
	seed := cs.Candidates[k-1].MaxDist
	ext := NewBound()
	ext.Tighten(seed)
	cs2 := SearchCandidates(idx, sq, k, crit, HS, ext)
	if cs2.BoundObserved > seed {
		t.Fatalf("seeded ext: observed %v > seed %v", cs2.BoundObserved, seed)
	}
}

// TestCandidateSetCoarsePrunes pins that the quantized narrow-tier
// settlements of a frozen traversal surface on the CandidateSet.
func TestCandidateSetCoarsePrunes(t *testing.T) {
	prev := SetQuantMode(QuantF32)
	defer SetQuantMode(prev)
	rng := rand.New(rand.NewSource(74))
	items := randItems(rng, 3, 800, 3)
	tr := sstree.New(3, sstree.WithMaxFill(16))
	for _, it := range items {
		tr.Insert(it)
	}
	tr.Freeze()
	idx := WrapSSTree(tr)

	total := uint64(0)
	for q := 0; q < 10; q++ {
		cs := SearchCandidates(idx, randQuery(rng, 3, 2), 5, dominance.Hyperbola{}, HS, nil)
		total += cs.CoarsePrunes
	}
	if total == 0 {
		t.Fatal("frozen f32 traversals reported zero coarse prunes over 10 queries")
	}
}

// TestCandidateSetTraceID pins the request-to-execution-trace linkage: a
// sampled candidate search returns the QueryTrace it recorded, and an
// unsampled one returns nil. Candidate searches record no root of their
// own — the scatter-gather layer hangs the trace on its shard span.
func TestCandidateSetTraceID(t *testing.T) {
	obs.ResetForTest()
	obs.SetEnabled(true)
	obs.SetTraceEvery(1)
	defer func() {
		obs.SetTraceEvery(0)
		obs.SetEnabled(false)
		obs.ResetForTest()
	}()
	rng := rand.New(rand.NewSource(75))
	items := randItems(rng, 3, 300, 3)
	idx := index(items, 3)
	cs := SearchCandidates(idx, randQuery(rng, 3, 2), 5, dominance.Hyperbola{}, HS, nil)
	if cs.Trace == nil || cs.Trace.ID == 0 || cs.Trace.CountKind(obs.SpanSearch) != 1 {
		t.Fatalf("sampled search returned trace %+v, want a finished trace", cs.Trace)
	}
	if dump := obs.Requests.Dump(); len(dump) != 0 {
		t.Fatalf("candidate search recorded %d roots, want 0", len(dump))
	}

	obs.SetTraceEvery(0)
	cs = SearchCandidates(idx, randQuery(rng, 3, 2), 5, dominance.Hyperbola{}, HS, nil)
	if cs.Trace != nil {
		t.Fatalf("unsampled search returned trace %d", cs.Trace.ID)
	}
}
