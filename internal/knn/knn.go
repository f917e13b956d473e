// Package knn implements the k-nearest-neighbour query over hypersphere
// databases defined in Section 6 of the paper (Definition 2), the
// application that exercises the dominance operator.
//
// Given a query hypersphere Sq and a database D of hyperspheres, let Sk be
// the member of D with the k-th smallest MaxDist to Sq. The answer of the
// kNN query is every member of D that is NOT dominated by Sk with respect
// to Sq — the set of objects that could still be among the k nearest under
// the uncertainty the spheres model.
//
// Three evaluators are provided:
//
//   - BruteForce: scans D; with the Exact (or Hyperbola) criterion this is
//     the ground truth the paper measures precision against.
//   - DF: the depth-first tree traversal of Roussopoulos et al. (ref [26]).
//   - HS: the best-first traversal of Hjaltason and Samet (ref [15]).
//
// DF and HS run over an index (package sstree or mtree) and maintain the
// best-known list L exactly as Section 6 prescribes: Case 1 inserts and
// evicts newly-dominated members, Case 2 consults the pluggable dominance
// criterion, Case 3 prunes by Lemma 9. With a correct criterion the result
// is a superset of the truth (recall 100%); with Hyperbola it is exact.
package knn

import (
	"fmt"
	"math"
	"sort"
	"time"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/obs"
	"hyperdom/internal/vec"
)

// Item is the indexed unit, shared with the index packages.
type Item = geom.Item

// Stats counts the work a query performed.
type Stats struct {
	NodesVisited int // internal + leaf index nodes touched
	Items        int // data items reached through the index (or scanned)
	DomChecks    int // dominance-criterion invocations
	Pruned       int // items discarded by Case 2 or Case 3
	// Resurrected counts items that an interim Sk had dominated (Case 2
	// prune or Case 1 eviction) but that the FINAL Sk does not dominate,
	// so the Definition 2 filter readmitted them. Non-zero values are the
	// reason the deferred list exists; see the bestList comment.
	Resurrected int
}

// Result is the answer of a kNN query.
type Result struct {
	// Items is the answer set, sorted by ascending MaxDist to the query.
	Items []Item
	// K is the k the query ran with.
	K int
	// Stats describes the work performed.
	Stats Stats
}

// IDs returns the answer's item IDs in result order.
func (r Result) IDs() []int {
	out := make([]int, len(r.Items))
	for i, it := range r.Items {
		out[i] = it.ID
	}
	return out
}

// BruteForce evaluates the kNN query by Definition 2 with a full scan:
// find Sk, then keep every item the criterion does not prove dominated.
// With dominance.Exact{} or dominance.Hyperbola{} the result is the ground
// truth. If D has fewer than k items the whole database is the answer.
func BruteForce(items []Item, sq geom.Sphere, k int, crit dominance.Criterion) Result {
	if k <= 0 {
		panic(fmt.Sprintf("knn: k = %d", k))
	}
	res := Result{K: k}
	res.Stats.Items = len(items)
	var start time.Time
	if obs.On() {
		start = time.Now()
	}
	defer func() {
		if obs.On() {
			obsBruteSearches.Inc()
			flushStats(&res.Stats)
			if !start.IsZero() {
				lat := time.Since(start).Nanoseconds()
				bruteLatency.Record(lat)
				recordSearch("knn.BruteForce", k, start, searchSpan("brute", "scan", lat, &res.Stats))
			}
		}
	}()
	if len(items) == 0 {
		return res
	}
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	maxd := make([]float64, len(items))
	for i, it := range items {
		maxd[i] = geom.MaxDist(it.Sphere, sq)
	}
	sort.Slice(order, func(a, b int) bool {
		if maxd[order[a]] != maxd[order[b]] {
			return maxd[order[a]] < maxd[order[b]]
		}
		return items[order[a]].ID < items[order[b]].ID
	})
	if len(items) <= k {
		for _, idx := range order {
			res.Items = append(res.Items, items[idx])
		}
		return res
	}
	sk := items[order[k-1]]
	for _, idx := range order {
		res.Stats.DomChecks++
		if crit.Dominates(sk.Sphere, items[idx].Sphere, sq) {
			res.Stats.Pruned++
			continue
		}
		res.Items = append(res.Items, items[idx])
	}
	return res
}

// bestList is the best-known list L of Section 6: candidates ordered by
// ascending MaxDist to the query.
//
// One refinement over the paper's literal Cases 1–3: an item dominated by
// the k-th candidate *at encounter time* (Case 2) or evicted after a Case 1
// insertion is not discarded outright but parked in a deferred list,
// because Definition 2 defines the answer against the FINAL Sk and
// dominance by an interim Sk does not imply dominance by the final one
// (distk shrinks as the search progresses, and dominance is not monotone in
// MaxDist). Case 3 prunes need no deferral: distk never increases, so
// MinDist(S,Sq) > distk at any time implies MaxDist(Sk_final,Sq) ≤ distk <
// MinDist(S,Sq), which is DCMinMax — dominance by the final Sk is already
// proven. The deferred items are re-filtered against the final Sk in
// finish(), making the search return exactly the Definition 2 answer when
// the criterion is correct and sound.
type bestList struct {
	sq       geom.Sphere
	k        int
	crit     dominance.Criterion
	hyp      bool                   // crit is the Hyperbola criterion
	pp       dominance.PreparedPair // kernel scratch for the hyp fast path
	entries  []entry
	deferred []entry
	stats    *Stats

	// Execution tracing and shadow evaluation (ISSUE 4). tb is non-nil only
	// while the owning search is sampled for tracing; critLabel is the
	// criterion's interned name for DomCheck spans. shadow mirrors
	// dominance.ShadowOn at reset time so the per-check branch is a plain
	// bool load.
	tb        *obs.TraceBuf
	critLabel obs.LabelID
	shadow    bool

	// Scratch-local observability tallies: finish() merge passes that had
	// deferred candidates to fold back in, and how many. Drained per
	// search by scratch.flushObs.
	deferMerges uint64
	deferItems  uint64

	// ext is the scatter-gather distK pushdown bound (DESIGN.md §13), nil
	// for single-index searches. When set, node-prune decisions read
	// pruneBound() — min(local distK, ext) — and offerDist publishes the
	// running local distK back into ext whenever it shrinks. lastPub
	// remembers the last value published so unchanged distKs skip the
	// atomic.
	ext     *Bound
	lastPub float64
}

type entry struct {
	item    Item
	maxDist float64
	minDist float64
}

// reset reinitialises the list for a new search, reusing the entry storage
// retained from previous searches on the same scratch.
func (l *bestList) reset(sq geom.Sphere, k int, crit dominance.Criterion, stats *Stats) {
	l.sq = sq
	l.k = k
	l.crit = crit
	_, l.hyp = crit.(dominance.Hyperbola)
	l.stats = stats
	l.entries = l.entries[:0]
	l.deferred = l.deferred[:0]
	l.tb = nil
	l.critLabel = 0
	l.shadow = dominance.ShadowOn()
	l.ext = nil
	l.lastPub = math.Inf(1)
}

// dominates runs one criterion check of the search. With the Hyperbola
// criterion it goes through the dominance kernel's prepared-pair path —
// identical verdicts, no interface dispatch, and the degenerate/overlap
// exits factored up front.
func (l *bestList) dominates(sa, sb geom.Sphere) bool {
	if l.hyp {
		l.pp.Reset(sa, sb)
		return l.pp.Dominates(l.sq)
	}
	return l.crit.Dominates(sa, sb, l.sq)
}

// check is the audited form of dominates: it owns the DomChecks count for
// its call site, routes through shadow evaluation when enabled (the
// returned verdict is always the primary criterion's), and emits a DomCheck
// span — with the check's quartic-solve cost on the Hyperbola path — when
// the search is traced.
func (l *bestList) check(phase uint8, sa, sb geom.Sphere, itemID int) bool {
	l.stats.DomChecks++
	if l.shadow {
		v := dominance.ShadowAudit(l.crit, sa, sb, l.sq, l.tb)
		if l.tb != nil {
			l.tb.DomCheck(phase, l.critLabel, int64(itemID), v, 0)
		}
		return v
	}
	if l.tb == nil {
		return l.dominates(sa, sb)
	}
	var q0 uint64
	if l.hyp {
		q0 = l.pp.QuarticSolves()
	}
	v := l.dominates(sa, sb)
	var dq uint64
	if l.hyp {
		// The tally auto-flushes every obsFlushEvery queries; a wrapped
		// window reads as zero rather than garbage.
		if q := l.pp.QuarticSolves(); q > q0 {
			dq = q - q0
		}
	}
	l.tb.DomCheck(phase, l.critLabel, int64(itemID), v, dq)
	return v
}

// notePrune owns the Pruned count for its call site and emits the matching
// ItemPrune span when the search is traced — span counts and the knn.pruned
// counter stay exactly equal by construction.
func (l *bestList) notePrune(phase uint8, e entry) {
	l.stats.Pruned++
	if l.tb != nil {
		l.tb.ItemPrune(phase, int64(e.item.ID), e.minDist)
	}
}

// distK returns the k-th smallest MaxDist in L, or +Inf while L holds fewer
// than k entries.
func (l *bestList) distK() float64 {
	if len(l.entries) < l.k {
		return math.Inf(1)
	}
	return l.entries[l.k-1].maxDist
}

// sk returns the entry whose MaxDist is the k-th smallest.
func (l *bestList) sk() Item { return l.entries[l.k-1].item }

// pruneBound returns the tightest node-prune bound available: the local
// distK, sharpened by the external scatter-gather bound when one is wired
// in. Only NODE prune decisions consult it — item-level Case 2/3 logic
// stays on the local distK, because those cases feed the candidate stream
// the merge layer filters (and the local Sk semantics they encode must not
// shift under a racing external value). Pruning a node by ext is safe for
// the same Lemma 9 argument as Case 3: ext ≥ the final global distK at all
// times, so MinDist > ext proves dominance by the final global Sk.
func (l *bestList) pruneBound() float64 {
	dk := l.distK()
	if l.ext != nil {
		if e := l.ext.Load(); e < dk {
			dk = e
		}
	}
	return dk
}

// publish pushes the running local distK into the external bound when it
// shrank since the last publication. Called after every list mutation that
// can lower distK; the lastPub guard makes the common no-change case one
// float compare.
func (l *bestList) publish() {
	if l.ext == nil || len(l.entries) < l.k {
		return
	}
	if dk := l.entries[l.k-1].maxDist; dk < l.lastPub {
		l.lastPub = dk
		l.ext.Tighten(dk)
	}
}

// add inserts e keeping the order by MaxDist (ties by ID for determinism).
func (l *bestList) add(e entry) {
	i := sort.Search(len(l.entries), func(i int) bool {
		if l.entries[i].maxDist != e.maxDist {
			return l.entries[i].maxDist > e.maxDist
		}
		return l.entries[i].item.ID > e.item.ID
	})
	l.entries = append(l.entries, entry{})
	copy(l.entries[i+1:], l.entries[i:])
	l.entries[i] = e
}

// offer processes one data item through the Case 1–3 logic of Section 6.
func (l *bestList) offer(it Item) {
	l.offerDist(it, vec.Dist(it.Sphere.Center, l.sq.Center))
}

// offerDist is offer with the item's center-to-query distance already in
// hand: the packed leaf pass computes it for a whole leaf in one streaming
// kernel call, and both MaxDist and MinDist derive from it — in exactly the
// operation order of geom.MaxDist/geom.MinDist, which keeps the pointer and
// packed paths bit-identical — for the price of a single sqrt.
func (l *bestList) offerDist(it Item, dist float64) {
	l.stats.Items++
	minDist := dist - it.Sphere.Radius - l.sq.Radius
	if !(minDist > 0) {
		minDist = 0
	}
	e := entry{
		item:    it,
		maxDist: dist + it.Sphere.Radius + l.sq.Radius,
		minDist: minDist,
	}
	if len(l.entries) < l.k {
		l.add(e)
		l.publish()
		return
	}
	dk := l.distK()
	switch {
	case e.maxDist <= dk:
		// Case 1: insert, then evict members the new Sk dominates.
		l.add(e)
		l.evictDominated()
		l.publish()
	case e.minDist <= dk:
		// Case 2: the k-th candidate may or may not dominate it (Lemma 10).
		if l.check(obs.PhaseCase2, l.sk().Sphere, it.Sphere, it.ID) {
			l.notePrune(obs.PhaseCase2, e)
			l.deferred = append(l.deferred, e)
			return
		}
		l.add(e)
	default:
		// Case 3: Lemma 9 — MinMax-provably dominated.
		l.notePrune(obs.PhaseCase3, e)
	}
}

// evictDominated removes every member dominated by the current Sk wrt Sq.
// Sk itself is safe: a sphere overlaps itself, so no criterion can report
// it dominated.
func (l *bestList) evictDominated() {
	sk := l.sk()
	dk := l.entries[l.k-1].maxDist
	kept := l.entries[:0]
	for _, e := range l.entries {
		// DCMinMax fast path: MinDist(e,Sq) > MaxDist(Sk,Sq) proves Sk
		// dominates e from the cached entry bounds alone — the same Lemma 9
		// argument Case 3 relies on — so the prepared-pair machinery never
		// runs and no DomCheck is recorded (it is a bound comparison, not a
		// criterion invocation; spans, shadow audits and the DomChecks stat
		// all track criterion invocations and stay equal by construction).
		// Entries can hold MinDist > distk only because distk shrank after
		// they were admitted, which is exactly the population this evicts.
		// Evicted members land in deferred either way and finish()
		// re-filters every entry against the final Sk, so which proof
		// evicts is invisible in the answer.
		if e.minDist > dk {
			l.notePrune(obs.PhaseEvict, e)
			l.deferred = append(l.deferred, e)
			continue
		}
		if l.check(obs.PhaseEvict, sk.Sphere, e.item.Sphere, e.item.ID) {
			l.notePrune(obs.PhaseEvict, e)
			l.deferred = append(l.deferred, e)
			continue
		}
		kept = append(kept, e)
	}
	l.entries = kept
}

// finish applies the final Definition 2 filter — against the final Sk — to
// the live list and the deferred candidates, and returns the answer in
// MaxDist order.
func (l *bestList) finish() []Item {
	if len(l.entries) == 0 {
		return nil
	}
	if len(l.entries) < l.k {
		// Fewer than k objects in the database: everything qualifies.
		// (Deferral and eviction require |L| ≥ k, so deferred is empty.)
		out := make([]Item, len(l.entries))
		for i, e := range l.entries {
			out[i] = e.item
		}
		return out
	}
	sk := l.sk()
	if len(l.deferred) > 0 {
		l.deferMerges++
		l.deferItems += uint64(len(l.deferred))
	}
	// The live list is already ordered by (MaxDist, ID) — add() maintains
	// that invariant — so sorting the deferred candidates in place and
	// merging the two runs replaces the old gather-into-one-slice +
	// sort.Slice pass, which allocated a combined buffer, a closure and a
	// reflect swapper on every search.
	sortEntries(l.deferred)
	out := make([]Item, 0, len(l.entries)+len(l.deferred))
	i, j := 0, 0
	for i < len(l.entries) || j < len(l.deferred) {
		var e entry
		var wasDeferred bool
		if j >= len(l.deferred) || (i < len(l.entries) && entryLess(l.entries[i], l.deferred[j])) {
			e = l.entries[i]
			i++
		} else {
			e = l.deferred[j]
			wasDeferred = true
			j++
		}
		if l.check(obs.PhaseFinal, sk.Sphere, e.item.Sphere, e.item.ID) {
			l.notePrune(obs.PhaseFinal, e)
			continue
		}
		if wasDeferred {
			l.stats.Resurrected++
		}
		out = append(out, e.item)
	}
	return out
}

// entryLess orders entries by ascending MaxDist, ties by ID — the result
// order of Definition 2 answers.
func entryLess(a, b entry) bool {
	if a.maxDist != b.maxDist {
		return a.maxDist < b.maxDist
	}
	return a.item.ID < b.item.ID
}

// sortEntries sorts es by entryLess without allocating: insertion sort for
// the short deferred lists of typical searches, in-place heapsort beyond
// that so adversarial workloads cannot go quadratic.
func sortEntries(es []entry) {
	if len(es) <= 32 {
		for i := 1; i < len(es); i++ {
			e := es[i]
			j := i - 1
			for j >= 0 && entryLess(e, es[j]) {
				es[j+1] = es[j]
				j--
			}
			es[j+1] = e
		}
		return
	}
	siftEntries := func(root, end int) {
		for {
			c := 2*root + 1
			if c >= end {
				return
			}
			if c+1 < end && entryLess(es[c], es[c+1]) {
				c++
			}
			if !entryLess(es[root], es[c]) {
				return
			}
			es[root], es[c] = es[c], es[root]
			root = c
		}
	}
	for i := len(es)/2 - 1; i >= 0; i-- {
		siftEntries(i, len(es))
	}
	for end := len(es) - 1; end > 0; end-- {
		es[0], es[end] = es[end], es[0]
		siftEntries(0, end)
	}
}
