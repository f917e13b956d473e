package knn

import (
	"fmt"
	"time"

	"hyperdom/internal/obs"
	"hyperdom/internal/packed"
)

// Traversal-level observability counters (ISSUE 2). The per-query figures
// (node visits, criterion checks, prunes) keep accumulating in the
// per-search Stats struct exactly as before; on top of that, every search
// drains its Stats — plus the traversal internals Stats never carried:
// heap pushes/pops, heap backing-array growth, depth-first child
// expansions and deferred-list merge work — into these process-wide
// counters, one batch of atomic adds per search. The hot per-node
// increments are plain field adds on scratch-owned structs.
var (
	obsSearches      = obs.New("knn.searches")
	obsSearchSSTree  = obs.New("knn.searches.sstree")
	obsSearchMTree   = obs.New("knn.searches.mtree")
	obsSearchRTree   = obs.New("knn.searches.rtree")
	obsSearchOther   = obs.New("knn.searches.other")
	obsNodesVisited  = obs.New("knn.nodes_visited")
	obsItemsScanned  = obs.New("knn.items_scanned")
	obsDomChecks     = obs.New("knn.dom_checks")
	obsPruned        = obs.New("knn.pruned")
	obsResurrected   = obs.New("knn.resurrected")
	obsHeapPushes    = obs.New("knn.heap_pushes")
	obsHeapPops      = obs.New("knn.heap_pops")
	obsHeapGrowth    = obs.New("knn.heap_growth")
	obsDFExpansions  = obs.New("knn.df_child_expansions")
	obsDeferMerges   = obs.New("knn.deferred_merges")
	obsDeferItems    = obs.New("knn.deferred_items")
	obsBatches       = obs.New("knn.batches")
	obsBatchQueries  = obs.New("knn.batch_queries")
	obsBruteSearches = obs.New("knn.brute_force_searches")
)

// Quantized coarse-filter counters (ISSUE 6): how often the narrow-tier
// leaf pass settled an item (coarse prune) versus deferring to the exact
// float64 block (exact fallback). prunes/(prunes+fallbacks) is the coarse
// hit-rate the bench reports.
var (
	obsQuantItemPrunes = obs.New("packed.quant.item_coarse_prunes")
	obsQuantItemExact  = obs.New("packed.quant.item_exact_fallbacks")
)

// substrate indexes the per-substrate latency histograms and span labels.
// It mirrors the adapter type switch in flushObs.
type substrate uint8

const (
	subSSTree substrate = iota
	subMTree
	subRTree
	subOther
	numSubstrates
)

var substrateNames = [numSubstrates]string{"sstree", "mtree", "rtree", "other"}

// Per-search latency histograms (ISSUE 3), one instance per (substrate,
// strategy) pair of the "knn.search_latency" family, plus a brute-force
// instance. Each search records exactly one sample, into the shard its
// pooled scratch arena owns, at the same flush point as the counters.
var (
	searchLatency [numSubstrates][2]*obs.Histogram
	bruteLatency  = obs.NewHistogram("knn.search_latency", `substrate="brute",algo="scan"`)
)

func init() {
	for s := substrate(0); s < numSubstrates; s++ {
		for _, a := range []Algorithm{DF, HS} {
			searchLatency[s][a] = obs.NewHistogram("knn.search_latency",
				fmt.Sprintf("substrate=%q,algo=%q", substrateNames[s], a.String()))
		}
	}
}

// flushStats adds one query's Stats to the global counters.
func flushStats(st *Stats) {
	obsNodesVisited.Add(uint64(st.NodesVisited))
	obsItemsScanned.Add(uint64(st.Items))
	obsDomChecks.Add(uint64(st.DomChecks))
	obsPruned.Add(uint64(st.Pruned))
	obsResurrected.Add(uint64(st.Resurrected))
}

// flushObs drains one finished search into the global counters, records
// its latency into the (substrate, strategy) histogram, and zeroes the
// scratch-local tallies. Called once per search when the obs gate is on;
// the scratch tallies still accumulate (cheaply) when it is off, so they
// are also zeroed here to keep a later snapshot from attributing old work
// to a new window. It returns the search's span — labels, latency, work
// counters and the sampled execution trace, if any — for the caller's
// root: a bare Search offers it to obs.Requests, a candidate search hands
// its trace up to the scatter-gather layer.
func (sc *scratch) flushObs(idx Index, algo Algorithm, start time.Time, st *Stats) (sp obs.ShardSpan) {
	obsSearches.Inc()
	sub := subOther
	switch a := idx.(type) {
	case ssAdapter:
		obsSearchSSTree.Inc()
		sub = subSSTree
	case mAdapter:
		obsSearchMTree.Inc()
		sub = subMTree
	case rAdapter:
		obsSearchRTree.Inc()
		sub = subRTree
	case packedAdapter:
		// A loaded snapshot attributes to the substrate that froze it, so
		// restart-from-snapshot keeps the same metric shape as serve-after-
		// build (SubstrateUnknown — pre-stamping files — lands in other).
		switch a.t.Substrate() {
		case packed.SubstrateSSTree:
			obsSearchSSTree.Inc()
			sub = subSSTree
		case packed.SubstrateMTree:
			obsSearchMTree.Inc()
			sub = subMTree
		case packed.SubstrateRTree:
			obsSearchRTree.Inc()
			sub = subRTree
		default:
			obsSearchOther.Inc()
		}
	default:
		obsSearchOther.Inc()
	}
	flushStats(st)

	if n := sc.heap.pushes + sc.pHeap.pushes; n != 0 {
		obsHeapPushes.Add(n)
	}
	if n := sc.heap.pops + sc.pHeap.pops; n != 0 {
		obsHeapPops.Add(n)
	}
	if n := sc.heap.grown + sc.pHeap.grown; n != 0 {
		obsHeapGrowth.Add(n)
	}
	if sc.dfExpansions != 0 {
		obsDFExpansions.Add(sc.dfExpansions)
	}
	if sc.qItemPrunes != 0 {
		obsQuantItemPrunes.Add(sc.qItemPrunes)
	}
	if sc.qItemExact != 0 {
		obsQuantItemExact.Add(sc.qItemExact)
	}
	if sc.list.deferMerges != 0 {
		obsDeferMerges.Add(sc.list.deferMerges)
		obsDeferItems.Add(sc.list.deferItems)
	}

	sp = searchSpan(substrateNames[sub], algo.String(), 0, st)
	sp.CoarsePrunes = sc.qItemPrunes
	if !start.IsZero() {
		sp.LatencyNs = time.Since(start).Nanoseconds()
		searchLatency[sub][algo].RecordShard(sc.shard, sp.LatencyNs)
		if sc.tb != nil {
			sp.Trace = sc.trace.Finish(sp.LatencyNs)
			sc.tb = nil
		}
	}
	sc.clearObsTallies()

	// The criterion-level events the search's PreparedPair tallied
	// (quartic solves, overlap short-circuits) become visible with the
	// same per-search cadence.
	sc.list.pp.FlushObs()
	return sp
}

// searchSpan is a bare search's one child span: its labels and work
// counters, with no distK pushdown to report.
func searchSpan(substrate, algo string, lat int64, st *Stats) obs.ShardSpan {
	return obs.ShardSpan{
		Substrate: substrate, Algo: algo, LatencyNs: lat,
		NodesVisited: st.NodesVisited, ItemsScanned: st.Items,
		DomChecks: st.DomChecks, Pruned: st.Pruned,
		BoundObserved: obs.NoBound, BoundPublished: obs.NoBound,
	}
}

// recordSearch offers a bare search to obs.Requests as a root with its one
// child span.
func recordSearch(endpoint string, k int, start time.Time, sp obs.ShardSpan) {
	obs.Requests.RecordSearch(obs.Request{
		Endpoint: endpoint, K: k, WhenUnixNs: start.UnixNano(), LatencyNs: sp.LatencyNs,
	}, sp)
}

// clearObsTallies zeroes the scratch-local counters a flush (or a pool
// put-back with the gate off) has accounted for.
func (sc *scratch) clearObsTallies() {
	sc.heap.pushes, sc.heap.pops, sc.heap.grown = 0, 0, 0
	sc.pHeap.pushes, sc.pHeap.pops, sc.pHeap.grown = 0, 0, 0
	sc.dfExpansions = 0
	sc.qItemPrunes, sc.qItemExact = 0, 0
	sc.list.deferMerges, sc.list.deferItems = 0, 0
}
