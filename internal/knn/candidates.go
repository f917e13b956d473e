package knn

import (
	"math"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/obs"
)

// The candidate-search entry points of the scatter-gather layer (DESIGN.md
// §13). A shard cannot apply Definition 2's final filter itself: the filter
// runs against the GLOBAL Sk, which no single shard knows, and dominance is
// not monotone in MaxDist — an item dominated by a shard-local Sk need not
// be dominated by the (closer) global one. So per-shard searches return the
// raw candidate stream — everything the traversal did not prove dominated
// by the final global Sk via Lemma 9 — and the merge layer computes Sk over
// the union and applies the one final filter.

// Candidate is one surviving entry of a per-shard kNN traversal: the item
// plus its cached MaxDist/MinDist to the query, in exactly the arithmetic
// the single-index path uses (so merged orderings are bit-identical).
type Candidate struct {
	Item    Item
	MaxDist float64
	MinDist float64
}

// CandidateSet is the answer of one per-shard candidate search: candidates
// in ascending (MaxDist, ID) order, plus the traversal's work Stats.
//
// Invariants the merge layer relies on:
//   - every indexed item is either present or was pruned under a bound that
//     is ≥ the final global distK (so it is provably dominated by the final
//     global Sk and provably outside the global top-k);
//   - in particular every item whose MaxDist is among the k smallest
//     globally is present, so the global Sk is computable from the union.
type CandidateSet struct {
	K          int
	Stats      Stats
	Candidates []Candidate

	// Per-shard request telemetry (ISSUE 8). Scalar by-products of the
	// traversal the scatter-gather layer surfaces in EXPLAIN output; they
	// ride in the (stack-allocated) CandidateSet so recording them costs the
	// search path nothing. Deliberately NOT part of Stats — Stats equality
	// between the packed and pointer paths is test-locked, and these fields
	// depend on quant mode and cross-shard timing.

	// CoarsePrunes counts quantized narrow-tier settlements (node + leaf)
	// this traversal made; 0 when quant mode is off or the index is not
	// frozen.
	CoarsePrunes uint64
	// BoundObserved is the external distK pushdown bound as of this
	// traversal's completion — what its node prunes could cut against.
	// +Inf when ext was nil or never tightened.
	BoundObserved float64
	// BoundPublished is this traversal's own final local distK as last
	// published into ext (Lemma 9: a k-th-smallest over a subset, hence
	// ≥ the final global distK). +Inf when fewer than k items were seen.
	BoundPublished float64
	// Trace is this traversal's execution trace when it was sampled, nil
	// otherwise; the scatter-gather layer hangs it on the shard's span.
	Trace *obs.QueryTrace
}

// SearchCandidates runs the kNN traversal and returns the surviving
// candidate stream instead of the final Definition 2 answer. ext, when
// non-nil, is the scatter-gather distK pushdown bound: the traversal reads
// it at every node-prune decision (pop/visit time) and publishes its own
// running local distK into it. Pass nil for a standalone candidate search.
func SearchCandidates(idx Index, sq geom.Sphere, k int, crit dominance.Criterion, algo Algorithm, ext *Bound) CandidateSet {
	sc := getScratch()
	defer putScratch(sc)
	return sc.searchCandidates(idx, sq, k, crit, algo, ext)
}

// SearchCandidates is the Searcher form of the package-level function; see
// Searcher.Search for the ownership contract.
func (s *Searcher) SearchCandidates(idx Index, sq geom.Sphere, k int, crit dominance.Criterion, algo Algorithm, ext *Bound) CandidateSet {
	return s.sc.searchCandidates(idx, sq, k, crit, algo, ext)
}

func (sc *scratch) searchCandidates(idx Index, sq geom.Sphere, k int, crit dominance.Criterion, algo Algorithm, ext *Bound) CandidateSet {
	cs := CandidateSet{K: k}
	cs.BoundObserved = math.Inf(1)
	cs.BoundPublished = math.Inf(1)
	l, start, ok := sc.traverse(idx, sq, k, crit, algo, ext, &cs.Stats)
	if !ok {
		return cs
	}
	cs.Candidates = l.collect()
	// Request-telemetry scalars for the EXPLAIN layer: read the coarse-prune
	// tallies before flushObs zeroes them, and snapshot both sides of the
	// distK pushdown — the shard's own final local distK versus the shared
	// bound it could prune with.
	cs.CoarsePrunes = sc.qItemPrunes
	cs.BoundPublished = l.distK()
	if ext != nil {
		cs.BoundObserved = ext.Load()
	}
	if obs.On() {
		cs.Trace = sc.flushObs(idx, algo, start, &cs.Stats).Trace
	}
	return cs
}

// collect returns the traversal's surviving entries — live list and
// deferred candidates merged in ascending (MaxDist, ID) order — without
// applying the final Definition 2 filter. The mirror of finish() for the
// scatter-gather path.
func (l *bestList) collect() []Candidate {
	if len(l.entries) == 0 && len(l.deferred) == 0 {
		return nil
	}
	sortEntries(l.deferred)
	out := make([]Candidate, 0, len(l.entries)+len(l.deferred))
	i, j := 0, 0
	for i < len(l.entries) || j < len(l.deferred) {
		var e entry
		if j >= len(l.deferred) || (i < len(l.entries) && entryLess(l.entries[i], l.deferred[j])) {
			e = l.entries[i]
			i++
		} else {
			e = l.deferred[j]
			j++
		}
		out = append(out, Candidate{Item: e.item, MaxDist: e.maxDist, MinDist: e.minDist})
	}
	return out
}
