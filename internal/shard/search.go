package shard

import (
	"fmt"
	"time"

	"hyperdom/internal/dominance"
	"hyperdom/internal/engine"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/obs"
)

// Explain is the request-scoped trace tree of one scatter-gather search
// (ISSUE 8): one ShardSpan per shard — latency, engine queue wait,
// candidates streamed, traversal work, coarse-prune hits, the distK
// pushdown bound observed vs. published, and the sampled execution trace —
// plus the final merge/filter span. The serving layer records it under the
// request's root span in obs.Requests; semantics are spelled out in
// DESIGN.md §14.
type Explain struct {
	Shards []obs.ShardSpan `json:"shards"`
	Merge  obs.MergeSpan   `json:"merge"`
}

// Search answers the Definition 2 kNN query by scatter-gather: broadcast
// to every shard, merge the per-shard candidate streams, compute the
// global Sk and apply the one final dominance filter. The result — items
// in ascending (MaxDist, ID) order — is bit-identical to a single-index
// knn.Search over the same data when the criterion is sound (Hyperbola,
// Exact). Stats aggregates the per-shard traversal work plus the merge
// layer's own DomChecks/Pruned; it is deterministic only when pushdown is
// disabled (racing bound publications otherwise change how much work each
// traversal happens to do, never the answer). Search is SearchExplain with
// the trace tree dropped.
func (x *Index) Search(sq geom.Sphere, k int) knn.Result {
	res, _ := x.SearchExplain(sq, k)
	return res
}

// SearchExplain is Search plus the per-request trace tree — scalar
// by-products the traversals produce anyway, recorded with two slice
// allocations per request and a few clock reads per shard, independent of
// the process-wide obs gate.
func (x *Index) SearchExplain(sq geom.Sphere, k int) (knn.Result, *Explain) {
	if k <= 0 {
		panic(fmt.Sprintf("shard: k = %d", k))
	}
	on := obs.On()
	var sw obs.Stopwatch
	if on {
		sw = obs.StartTimer()
		obsQueries.Inc()
		obsScatter.Add(uint64(len(x.shards)))
	}
	var ext *knn.Bound
	if !x.opts.DisablePushdown {
		ext = knn.NewBound()
	}

	// Scatter: one candidate search per shard, each through that shard's
	// engine pool (so it runs on the pool's warm arenas). Results arrive
	// in completion order so the gather loop can tighten the shared bound
	// for shards still in flight. The span and telemetry slices are sized
	// here — the per-shard recording itself is plain scalar stores, zero
	// allocations per shard.
	type arrival struct {
		i  int
		cs knn.CandidateSet
	}
	ex := &Explain{Shards: make([]obs.ShardSpan, len(x.shards))}
	tts := make([]engine.TaskTelemetry, len(x.shards))
	ch := make(chan arrival, len(x.shards))
	for i := range x.shards {
		go func(i int) {
			t0 := time.Now()
			cs := x.shards[i].eng.SearchCandidates(sq, k, ext, &tts[i])
			ex.Shards[i] = obs.ShardSpan{
				Shard:          i,
				Items:          x.shards[i].n,
				LatencyNs:      time.Since(t0).Nanoseconds(),
				QueueWaitNs:    tts[i].QueueWaitNs,
				Candidates:     len(cs.Candidates),
				NodesVisited:   cs.Stats.NodesVisited,
				ItemsScanned:   cs.Stats.Items,
				DomChecks:      cs.Stats.DomChecks,
				Pruned:         cs.Stats.Pruned,
				CoarsePrunes:   cs.CoarsePrunes,
				BoundObserved:  obs.BoundValue(cs.BoundObserved),
				BoundPublished: obs.BoundValue(cs.BoundPublished),
				Trace:          cs.Trace,
			}
			ch <- arrival{i, cs}
		}(i)
	}

	// Gather: as each stream lands, fold its candidates into a running
	// global k-heap on (MaxDist, ID) and publish the heap's k-th smallest
	// — the running global distK over everything merged so far — back to
	// the laggard shards. The heap's top is a k-th smallest MaxDist over a
	// subset of the data, so it can never undershoot the final global
	// distK (the pushdown safety invariant of knn.Bound).
	sets := make([]knn.CandidateSet, len(x.shards))
	var res knn.Result
	res.K = k
	h := newKHeap(k, x.n)
	for range x.shards {
		a := <-ch
		sets[a.i] = a.cs
		x.scatterCands[a.i].Add(uint64(len(a.cs.Candidates)))
		addStats(&res.Stats, &a.cs.Stats)
		if ext != nil {
			for _, c := range a.cs.Candidates {
				// The stream is sorted: the first candidate the full heap
				// rejects ends the fold.
				if !h.offer(c.MaxDist, c.Item.ID) {
					break
				}
			}
			if h.full() {
				ext.Tighten(h.top())
			}
		}
	}

	mt := time.Now()
	res.Items = x.merge(sets, sq, k, &res.Stats, &ex.Merge)
	ex.Merge.LatencyNs = time.Since(mt).Nanoseconds()
	if on {
		x.histMerge.Record(ex.Merge.LatencyNs)
		sw.Stop(x.histSearch)
	}
	return res, ex
}

// merge N sorted candidate streams into the final Definition 2 answer:
// k-th smallest (MaxDist, ID) of the union is Sk, and every candidate Sk
// does not provably dominate survives, in merged order. Fewer than k
// candidates in total means the whole database qualified. ms receives the
// merge's explain scalars (candidates folded, final filter prunes, results
// kept).
func (x *Index) merge(sets []knn.CandidateSet, sq geom.Sphere, k int, stats *knn.Stats, ms *obs.MergeSpan) []geom.Item {
	total := 0
	for i := range sets {
		total += len(sets[i].Candidates)
	}
	ms.Candidates = total
	if total == 0 {
		return nil
	}
	merged := make([]knn.Candidate, 0, total)
	cursors := make([]int, len(sets))
	for {
		best := -1
		var bc knn.Candidate
		for i := range sets {
			if cursors[i] >= len(sets[i].Candidates) {
				continue
			}
			c := sets[i].Candidates[cursors[i]]
			if best < 0 || candLess(c, bc) {
				best, bc = i, c
			}
		}
		if best < 0 {
			break
		}
		merged = append(merged, bc)
		cursors[best]++
	}
	if obs.On() {
		obsMergeCandidates.Add(uint64(total))
	}
	if total < k {
		out := make([]geom.Item, len(merged))
		for i, c := range merged {
			out[i] = c.Item
		}
		ms.Results = len(out)
		return out
	}
	sk := merged[k-1].Item
	_, hyp := x.opts.Criterion.(dominance.Hyperbola)
	var pp dominance.PreparedPair
	out := make([]geom.Item, 0, k)
	pruned := 0
	for _, c := range merged {
		stats.DomChecks++
		var dominated bool
		if hyp {
			pp.Reset(sk.Sphere, c.Item.Sphere)
			dominated = pp.Dominates(sq)
		} else {
			dominated = x.opts.Criterion.Dominates(sk.Sphere, c.Item.Sphere, sq)
		}
		if dominated {
			pruned++
			continue
		}
		out = append(out, c.Item)
	}
	stats.Pruned += pruned
	ms.Pruned, ms.Results = pruned, len(out)
	if obs.On() {
		obsMergePruned.Add(uint64(pruned))
		pp.FlushObs()
	}
	return out
}

func candLess(a, b knn.Candidate) bool {
	if a.MaxDist != b.MaxDist {
		return a.MaxDist < b.MaxDist
	}
	return a.Item.ID < b.Item.ID
}

func addStats(dst, src *knn.Stats) {
	dst.NodesVisited += src.NodesVisited
	dst.Items += src.Items
	dst.DomChecks += src.DomChecks
	dst.Pruned += src.Pruned
	dst.Resurrected += src.Resurrected
}

// kHeap keeps the k smallest (maxDist, ID) pairs seen so far as a max-heap:
// the root is the running global distK once the heap is full.
type kHeap struct {
	k  int
	ds []float64
	id []int
}

// newKHeap sizes the heap for at most n entries — the indexed item count,
// the most any query can offer — so a huge k allocates no more than k = n
// would; with k > n the heap simply never fills.
func newKHeap(k, n int) *kHeap {
	c := min(k, n)
	return &kHeap{k: k, ds: make([]float64, 0, c), id: make([]int, 0, c)}
}

func (h *kHeap) full() bool   { return len(h.ds) == h.k }
func (h *kHeap) top() float64 { return h.ds[0] }

// above reports whether (d, id) orders after the root — i.e. would not
// displace anything in a full heap.
func (h *kHeap) above(d float64, id int) bool {
	return d > h.ds[0] || (d == h.ds[0] && id > h.id[0])
}

// offer inserts (d, id) if it belongs among the k smallest and reports
// whether it did (a full heap rejecting means every later element of an
// ascending stream would be rejected too).
func (h *kHeap) offer(d float64, id int) bool {
	if len(h.ds) < h.k {
		h.ds = append(h.ds, d)
		h.id = append(h.id, id)
		h.siftUp(len(h.ds) - 1)
		return true
	}
	if h.above(d, id) {
		return false
	}
	h.ds[0], h.id[0] = d, id
	h.siftDown(0)
	return true
}

func (h *kHeap) less(a, b int) bool {
	if h.ds[a] != h.ds[b] {
		return h.ds[a] < h.ds[b]
	}
	return h.id[a] < h.id[b]
}

func (h *kHeap) swap(a, b int) {
	h.ds[a], h.ds[b] = h.ds[b], h.ds[a]
	h.id[a], h.id[b] = h.id[b], h.id[a]
}

func (h *kHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(p, i) {
			break
		}
		h.swap(p, i)
		i = p
	}
}

func (h *kHeap) siftDown(i int) {
	for {
		c := 2*i + 1
		if c >= len(h.ds) {
			return
		}
		if c+1 < len(h.ds) && h.less(c, c+1) {
			c++
		}
		if !h.less(i, c) {
			return
		}
		h.swap(i, c)
		i = c
	}
}
