package knn

import (
	"sync"

	"hyperdom/internal/obs"
)

// scratch is the per-search reusable arena: every buffer a traversal needs —
// child frames, distance keys, the best-first heap, and the best-known
// list's entry storage — lives here and is recycled through a sync.Pool, so
// a steady-state Search performs no heap allocation beyond the answer slice
// it hands to the caller.
//
// The child frames (stack/dists, pStack/pDists) are flat arenas shared by
// all levels of a depth-first recursion: each visit records the current
// length as its frame base, appends its children, and truncates back to the
// base on exit. Appends reuse the retained capacity, so after the first few
// searches the arena never grows.
//
// A scratch is owned by exactly one search at a time; SearchBatch gives each
// worker its own.
type scratch struct {
	list bestList

	// Generic (interface-based) traversal state.
	stack []IndexNode // DF child frames / HS expansion buffer
	dists []float64   // MinDist keys parallel to stack
	heap  nodeHeap    // HS frontier

	// Packed (frozen snapshot) fast-path state: dense node ids instead of
	// cursors, plus a staging buffer for the streaming kernel outputs
	// (leaf item distances, HS child mindists). None of these hold
	// references, so pooling them needs no clearing.
	pStack []int32
	pDists []float64
	pBuf   []float64
	pHeap  pHeap

	// Quantized coarse-filter state (ISSUE 6): whether this search runs
	// the f32 leaf pass (stashed once at packed dispatch from the
	// process-wide QuantMode), the survivor-index buffer the select kernel
	// fills, and the coarse-prune / exact-fallback tallies flushObs
	// drains. Plain values, nothing to clear on pool put-back.
	coarse bool
	qSel   []int32

	qItemPrunes uint64
	qItemExact  uint64

	// dfExpansions tallies children expanded by the depth-first
	// traversals this search (plain add; drained by flushObs).
	dfExpansions uint64

	// trace is the search's span buffer when this search was sampled for
	// execution tracing (ISSUE 4); tb points at it then and is nil
	// otherwise, so every instrumentation site pays one nil check. The
	// buffer's span storage is reused across traced searches on this
	// scratch; Span holds no references, so pooling it is leak-safe.
	trace obs.TraceBuf
	tb    *obs.TraceBuf

	// shard is this scratch's stable latency-histogram shard, assigned
	// round-robin at allocation. A scratch is owned by one goroutine per
	// search, so recording through it stripes concurrent workers across
	// the histogram's cache lines.
	shard int
}

// resetTraversal empties the traversal buffers before a search. The DF
// frame arenas unwind themselves, but a best-first search that terminates
// early (nearest frontier node beyond distk) leaves its remaining frontier
// on the heap — the next search on this scratch must not inherit it.
func (sc *scratch) resetTraversal() {
	sc.stack = clearLen(sc.stack)
	sc.dists = sc.dists[:0]
	sc.heap.nodes = clearLen(sc.heap.nodes)
	sc.heap.dists = sc.heap.dists[:0]
	sc.pStack = sc.pStack[:0]
	sc.pDists = sc.pDists[:0]
	sc.pHeap.es = sc.pHeap.es[:0]
}

var scratchPool = sync.Pool{New: func() any { return &scratch{shard: obs.NextShard()} }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch returns sc to the pool with every reference cleared over the
// buffers' full capacity: a pooled scratch may live arbitrarily long, and a
// single stale IndexNode, tree-node cursor, or Item would otherwise retain
// an entire index (or its data spheres) that the caller has dropped.
func putScratch(sc *scratch) {
	// A search flushes its own tallies when the obs gate is on; this
	// catches tallies accumulated while it was off (and the prepared-pair
	// remainder) so a pooled scratch never carries stale work counts into
	// a later measurement window.
	sc.clearObsTallies()
	sc.list.pp.FlushObs()
	sc.stack = clearCap(sc.stack)
	sc.dists = sc.dists[:0]
	sc.heap.nodes = clearCap(sc.heap.nodes)
	sc.heap.dists = sc.heap.dists[:0]
	sc.pStack = sc.pStack[:0]
	sc.pDists = sc.pDists[:0]
	sc.pHeap.es = sc.pHeap.es[:0]
	sc.list.entries = clearCap(sc.list.entries)
	sc.list.deferred = clearCap(sc.list.deferred)
	sc.list.stats = nil
	sc.list.tb = nil
	sc.list.ext = nil
	// A trace begun by a search that never reached its flush (obs gate
	// turned off mid-search) must not leak into the next search.
	sc.cancelTrace()
	scratchPool.Put(sc)
}

// cancelTrace abandons an in-flight trace, keeping the buffer for reuse.
func (sc *scratch) cancelTrace() {
	if sc.tb != nil {
		sc.trace.Cancel()
		sc.tb = nil
	}
}

// growToI32 is growTo for the survivor-index buffer.
func growToI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n, 2*n)
	}
	return s[:n]
}

// clearCap zeroes s over its full capacity and returns it with length 0.
func clearCap[T any](s []T) []T {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

// clearLen zeroes s over its current length and returns it with length 0.
func clearLen[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// sortByDist sorts nodes and their parallel distance keys in tandem by
// ascending distance: insertion sort for the small fan-outs of real trees,
// an in-place heapsort fallback so a pathological fan-out cannot go
// quadratic. Replaces the old sort.Slice call, whose closure and
// reflect-based swapper allocated on every node visit.
func sortByDist[N any](nodes []N, dists []float64) {
	if len(nodes) <= 48 {
		for i := 1; i < len(nodes); i++ {
			n, d := nodes[i], dists[i]
			j := i - 1
			for j >= 0 && dists[j] > d {
				nodes[j+1], dists[j+1] = nodes[j], dists[j]
				j--
			}
			nodes[j+1], dists[j+1] = n, d
		}
		return
	}
	// Heapsort: build a max-heap, then repeatedly swap the root out.
	for i := len(nodes)/2 - 1; i >= 0; i-- {
		siftDownMax(nodes, dists, i, len(nodes))
	}
	for end := len(nodes) - 1; end > 0; end-- {
		nodes[0], nodes[end] = nodes[end], nodes[0]
		dists[0], dists[end] = dists[end], dists[0]
		siftDownMax(nodes, dists, 0, end)
	}
}

func siftDownMax[N any](nodes []N, dists []float64, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && dists[child+1] > dists[child] {
			child++
		}
		if dists[root] >= dists[child] {
			return
		}
		nodes[root], nodes[child] = nodes[child], nodes[root]
		dists[root], dists[child] = dists[child], dists[root]
		root = child
	}
}
