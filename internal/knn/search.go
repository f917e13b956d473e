package knn

import (
	"fmt"
	"time"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/obs"
	"hyperdom/internal/sstree"
)

// Algorithm selects the index traversal strategy.
type Algorithm int

const (
	// DF is the depth-first branch-and-bound traversal of Roussopoulos,
	// Kelley and Vincent (SIGMOD 1995) adapted to hypersphere nodes.
	DF Algorithm = iota
	// HS is the best-first (priority queue on MinDist) traversal of
	// Hjaltason and Samet (TODS 1999).
	HS
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case DF:
		return "DF"
	case HS:
		return "HS"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Index abstracts the tree the searches traverse, implemented by the
// SS-tree and M-tree adapters below and in package mtree.
type Index interface {
	// RootNode returns the root cursor, or ok=false for an empty index.
	RootNode() (IndexNode, bool)
}

// IndexNode is a read-only cursor over one index node.
type IndexNode interface {
	IsLeaf() bool
	// MinDistTo returns a lower bound on the distance from any item in the
	// subtree to the query sphere: 0 when they can intersect, and never
	// more than the true minimum distance. Sphere-bounded nodes (SS-tree,
	// M-tree) return MinDist of their bounding sphere; rectangle-bounded
	// nodes (R-tree) return MinDist of their MBR.
	MinDistTo(q geom.Sphere) float64
	// ChildNodes appends the node's children to dst and returns it. Only
	// valid on internal nodes.
	ChildNodes(dst []IndexNode) []IndexNode
	// NodeItems returns the node's items. Only valid on leaves.
	NodeItems() []Item
}

// Search answers the kNN query of Definition 2 over an index using the
// given traversal strategy and dominance criterion. Frozen substrates take
// the packed traversal; everything else goes through the IndexNode
// interface — the differential oracle the packed path is tested against.
// Either way the traversal runs out of a pooled scratch arena and performs
// no steady-state heap allocation beyond the returned answer slice.
func Search(idx Index, sq geom.Sphere, k int, crit dominance.Criterion, algo Algorithm) Result {
	sc := getScratch()
	defer putScratch(sc)
	return sc.search(idx, sq, k, crit, algo)
}

// Searcher owns one scratch arena for repeated searches from a single
// goroutine — the per-worker handle of the batch-query engine (package
// engine). It skips the pool round-trip Search pays per query; otherwise
// the two are identical. Not safe for concurrent use.
type Searcher struct{ sc *scratch }

// NewSearcher takes a scratch arena out of the pool.
func NewSearcher() *Searcher { return &Searcher{sc: getScratch()} }

// Search answers one query out of the Searcher's arena; see Search.
func (s *Searcher) Search(idx Index, sq geom.Sphere, k int, crit dominance.Criterion, algo Algorithm) Result {
	return s.sc.search(idx, sq, k, crit, algo)
}

// Close returns the arena to the pool. The Searcher must not be used after.
func (s *Searcher) Close() {
	if s.sc != nil {
		putScratch(s.sc)
		s.sc = nil
	}
}

func (sc *scratch) search(idx Index, sq geom.Sphere, k int, crit dominance.Criterion, algo Algorithm) Result {
	res := Result{K: k}
	l, start, ok := sc.traverse(idx, sq, k, crit, algo, nil, &res.Stats)
	if !ok {
		return res
	}
	res.Items = l.finish()
	if obs.On() {
		if sp := sc.flushObs(idx, algo, start, &res.Stats); !start.IsZero() {
			recordSearch("knn.Search", k, start, sp)
		}
	}
	return res
}

// traverse runs the index traversal shared by Search (finish() filter) and
// SearchCandidates (raw candidate stream): dispatch to the packed or the
// generic path, with the best-known list filled in and the per-search
// instrumentation armed. ext is the optional scatter-gather
// pushdown bound (nil for single-index searches — the nil check is the
// only cost the hot path pays for it). ok=false means the index was empty:
// the list holds nothing and any sampled trace was cancelled; callers skip
// both the answer pass and the obs flush, exactly as before the split.
func (sc *scratch) traverse(idx Index, sq geom.Sphere, k int, crit dominance.Criterion, algo Algorithm, ext *Bound, stats *Stats) (l *bestList, start time.Time, ok bool) {
	if k <= 0 {
		panic(fmt.Sprintf("knn: k = %d", k))
	}
	// One clock read per search when instrumentation is on: the delta feeds
	// the per-(substrate, strategy) latency histogram and the search's span
	// at the same flush point as the work counters.
	if obs.On() {
		start = time.Now()
		if obs.SampleTrace() {
			// This search records its full span tree; flushObs freezes it
			// onto the search's span with the counters.
			sc.trace.Begin(start)
			sc.tb = &sc.trace
		}
	}
	sc.resetTraversal()
	l = &sc.list
	l.reset(sq, k, crit, stats)
	l.ext = ext
	if sc.tb != nil {
		l.tb = sc.tb
		l.critLabel = obs.FlightLabel(crit.Name())
	}
	// A frozen substrate routes to the packed traversal: same verdicts,
	// result sets and stats (the kernels and traversal order are
	// bit-identical to the pointer path), off contiguous SoA blocks.
	if pt := frozenOf(idx); pt != nil {
		if pt.Empty() {
			sc.cancelTrace()
			return nil, start, false
		}
		// Stash the process-wide quantization mode for this search: the
		// two-phase leaf loop consults sc.coarse so a concurrent
		// SetQuantMode cannot flip the mode mid-traversal. A degenerate
		// query radius (negative or NaN) takes the exact path outright —
		// the coarse kernel's threshold arithmetic assumes all-non-negative
		// terms (see vec/quant.go), and such a query is never hot.
		sc.coarse = QuantModeNow() == QuantF32 && sq.Radius >= 0
		switch algo {
		case DF:
			sc.searchDFPacked(pt, pt.Root(), pt.RootMinDist(sq), sq, l)
		case HS:
			sc.searchHSPacked(pt, sq, l)
		default:
			panic(fmt.Sprintf("knn: unknown algorithm %d", int(algo)))
		}
		if obs.On() {
			obsSearchPacked.Inc()
		}
		return l, start, true
	}
	root, rok := idx.RootNode()
	if !rok {
		sc.cancelTrace()
		return nil, start, false
	}
	switch algo {
	case DF:
		sc.searchDF(root, sq, l)
	case HS:
		sc.searchHS(root, sq, l)
	default:
		panic(fmt.Sprintf("knn: unknown algorithm %d", int(algo)))
	}
	return l, start, true
}

// searchDF visits children in ascending MinDist order, pruning subtrees
// whose MinDist to the query exceeds distk (every item below would fall to
// Case 3). Child cursors and distance keys live in the scratch arena,
// frame-stacked across recursion levels.
func (sc *scratch) searchDF(n IndexNode, sq geom.Sphere, l *bestList) {
	l.stats.NodesVisited++
	sp := int32(-1)
	if tb := sc.tb; tb != nil {
		sp = tb.StartNode(nodeID(n), n.MinDistTo(sq))
	}
	if n.IsLeaf() {
		items := n.NodeItems()
		for _, it := range items {
			l.offer(it)
		}
		if sc.tb != nil {
			sc.tb.EndNode(sp, 0, int32(len(items)))
		}
		return
	}
	base := len(sc.stack)
	sc.stack = n.ChildNodes(sc.stack)
	nc := len(sc.stack) - base
	sc.dfExpansions += uint64(nc)
	sc.dists = growTo(sc.dists, base+nc)
	for i := 0; i < nc; i++ {
		sc.dists[base+i] = sc.stack[base+i].MinDistTo(sq)
	}
	sortByDist(sc.stack[base:base+nc], sc.dists[base:base+nc])
	for i := 0; i < nc; i++ {
		if sc.dists[base+i] > l.pruneBound() {
			// Every deeper item has MinDist ≥ this bound: Case 3 territory.
			if tb := sc.tb; tb != nil {
				for j := i; j < nc; j++ {
					tb.NodePrune(nodeID(sc.stack[base+j]), sc.dists[base+j])
				}
			}
			break
		}
		sc.searchDF(sc.stack[base+i], sq, l)
	}
	clear(sc.stack[base : base+nc]) // drop node refs before the frame pops
	sc.stack = sc.stack[:base]
	sc.dists = sc.dists[:base]
	if sc.tb != nil {
		sc.tb.EndNode(sp, int32(nc), 0)
	}
}

// nodeIdent is the optional node-identity hook of index cursors; the three
// tree substrates implement it.
type nodeIdent interface{ DebugID() uint64 }

// nodeID extracts a node's trace identity, 0 when the substrate offers none.
func nodeID(n IndexNode) uint64 {
	if id, ok := n.(nodeIdent); ok {
		return id.DebugID()
	}
	return 0
}

// growTo extends s to length n, reusing capacity.
func growTo(s []float64, n int) []float64 {
	if cap(s) < n {
		ns := make([]float64, n, 2*n)
		copy(ns, s)
		return ns
	}
	return s[:n]
}

// nodeHeap is a hand-rolled min-heap of index nodes keyed by MinDist to the
// query. It deliberately does not implement container/heap: the standard
// interface forces every pushed entry through an `any` box, which allocated
// on each node visit.
type nodeHeap struct {
	nodes []IndexNode
	dists []float64

	// Scratch-local observability tallies (plain adds; drained per search
	// by scratch.flushObs).
	pushes, pops, grown uint64
}

func (h *nodeHeap) len() int { return len(h.nodes) }

func (h *nodeHeap) push(n IndexNode, d float64) {
	h.pushes++
	if len(h.nodes) == cap(h.nodes) {
		h.grown++
	}
	h.nodes = append(h.nodes, n)
	h.dists = append(h.dists, d)
	i := len(h.nodes) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.dists[p] <= h.dists[i] {
			break
		}
		h.nodes[p], h.nodes[i] = h.nodes[i], h.nodes[p]
		h.dists[p], h.dists[i] = h.dists[i], h.dists[p]
		i = p
	}
}

// pop removes and returns the nearest node. The vacated slot is nilled
// before the slice shrinks: the backing array survives in the scratch pool,
// and a live reference there would retain an entire abandoned index during
// deep traversals.
func (h *nodeHeap) pop() (IndexNode, float64) {
	h.pops++
	n, d := h.nodes[0], h.dists[0]
	last := len(h.nodes) - 1
	h.nodes[0], h.dists[0] = h.nodes[last], h.dists[last]
	h.nodes[last] = nil
	h.nodes = h.nodes[:last]
	h.dists = h.dists[:last]
	h.siftDown(0)
	return n, d
}

func (h *nodeHeap) siftDown(i int) {
	for {
		c := 2*i + 1
		if c >= len(h.nodes) {
			return
		}
		if c+1 < len(h.nodes) && h.dists[c+1] < h.dists[c] {
			c++
		}
		if h.dists[i] <= h.dists[c] {
			return
		}
		h.nodes[i], h.nodes[c] = h.nodes[c], h.nodes[i]
		h.dists[i], h.dists[c] = h.dists[c], h.dists[i]
		i = c
	}
}

// searchHS pops nodes in globally ascending MinDist order; once the nearest
// unexplored node is beyond distk the traversal is complete, because distk
// never increases.
func (sc *scratch) searchHS(root IndexNode, sq geom.Sphere, l *bestList) {
	h := &sc.heap
	h.push(root, root.MinDistTo(sq))
	for h.len() > 0 {
		n, dist := h.pop()
		if dist > l.pruneBound() {
			if tb := sc.tb; tb != nil {
				tb.NodePrune(nodeID(n), dist)
			}
			return
		}
		l.stats.NodesVisited++
		sp := int32(-1)
		if tb := sc.tb; tb != nil {
			sp = tb.StartNode(nodeID(n), dist)
		}
		if n.IsLeaf() {
			items := n.NodeItems()
			for _, it := range items {
				l.offer(it)
			}
			if sc.tb != nil {
				sc.tb.EndNode(sp, 0, int32(len(items)))
			}
			continue
		}
		base := len(sc.stack)
		sc.stack = n.ChildNodes(sc.stack)
		// Invariant: distk cannot change inside this loop — it only shrinks
		// when an item is offered to the list, and expanding an internal
		// node only pushes child nodes. Hoisting the bound out of the loop
		// saves a distK() call per child. The external bound may tighten
		// concurrently, but it is monotone non-increasing, so a hoisted
		// read is merely conservative.
		dk := l.pruneBound()
		for _, c := range sc.stack[base:] {
			if d := c.MinDistTo(sq); d <= dk {
				h.push(c, d)
			} else if tb := sc.tb; tb != nil {
				tb.NodePrune(nodeID(c), d)
			}
		}
		nc := int32(len(sc.stack) - base)
		clear(sc.stack[base:])
		sc.stack = sc.stack[:base]
		if sc.tb != nil {
			sc.tb.EndNode(sp, nc, 0)
		}
	}
}

// ssAdapter adapts an SS-tree to the Index interface.
type ssAdapter struct{ t *sstree.Tree }

// WrapSSTree adapts an SS-tree for Search.
func WrapSSTree(t *sstree.Tree) Index { return ssAdapter{t} }

func (a ssAdapter) RootNode() (IndexNode, bool) {
	root, ok := a.t.Root()
	if !ok {
		return nil, false
	}
	return ssNode{root}, true
}

type ssNode struct{ n sstree.Node }

func (n ssNode) IsLeaf() bool                    { return n.n.IsLeaf() }
func (n ssNode) MinDistTo(q geom.Sphere) float64 { return geom.MinDist(n.n.Sphere(), q) }
func (n ssNode) NodeItems() []Item               { return n.n.Items() }
func (n ssNode) DebugID() uint64                 { return n.n.DebugID() }
func (n ssNode) ChildNodes(dst []IndexNode) []IndexNode {
	for i, m := 0, n.n.NumChildren(); i < m; i++ {
		dst = append(dst, ssNode{n.n.Child(i)})
	}
	return dst
}
