package vec

import "math"

// Quantized coarse-filter kernel. The packed snapshot (package packed)
// stores, next to the exact float64 item block of every leaf, a float32
// copy of the item centers plus two per-item float32 sums, and the kernel
// below streams one pass over that narrow copy and returns the items whose
// exact minimum distance to the query might not exceed the current kth
// distance dk. Everything else is certainly a Case-3 prune (Lemma 9), so
// the traversal touches the exact block only for the survivors.
//
// Contract — the reason this is a sufficient prune criterion: every entry
// the kernel drops has
//
//	exact mindist = dist(q, c_i) − rad_i − qr > dk,
//
// computed in float64 from the exact geometry. NaN anywhere settles every
// comparison false, so a degenerate entry (or query) survives and the
// exact path keeps full authority over every edge case.
// FuzzQuantizedLowerBound (package packed) locks this contract.
//
// The slack accounting: quantization replaces an exact center c by a
// float32 ĉ, and the builder stores, per entry, an upper bound on how far
// the narrow distance can exceed the exact one (the center displacement
// ‖ĉ−c‖, computed in float64 at freeze time from the very same float32
// values the kernel reads, inflated and rounded up). The kernel adds that
// slack to the threshold, then shaves a relative lbEps off the distance
// term to absorb the float64 arithmetic rounding of both the narrow and the
// exact evaluation (true relative error is below 1e-13 for any practical
// dimensionality; 1e-9 leaves three orders of margin and costs nothing in
// pruning power).
const lbEps = 1e-9

// The refine test compares in squared space: the traversal only needs the
// decision
//
//	dist̂·(1−lbEps) > thr,  thr = dk + slack + radius + qr,
//
// which holds exactly when dist̂²·(1−2·lbEps) > thr² (both sides
// non-negative, and the doubled shave absorbs the squaring's own rounding),
// so no square root is taken per item. A dropped entry certainly has exact
// mindist > dk: the margin the comparison clears is relative to the
// (larger) distance side, so the conservatism chain above carries over.
//
// Domain: the squared-space comparison is sound only when every term of thr
// is non-negative — a mixed-sign sum can cancel catastrophically, leaving
// thr with absolute error far beyond any relative margin (a tiny slack
// absorbed into a large ±qr pair vanishes entirely). Callers must pass
// qr >= 0 and dk >= 0 (the traversal's quantOn and dispatch gates guarantee
// both), and the freeze-time quantizer disables negative-radius entries by
// giving them infinite slack.

// selDrop is the squared-space prune decision of the refine stage.
func selDrop(s, thr2 float64) bool {
	return s*(1-2*lbEps) > thr2
}

// selLen validates a select kernel's geometry: positive dimensionality, a
// whole number of entries in the block, and room in sel for every survivor.
func selLen(name string, sel []int32, blockVals, d int) int {
	if d <= 0 || blockVals%d != 0 {
		panic(dimMismatch(name, blockVals, d))
	}
	n := blockVals / d
	if len(sel) < n {
		panic(dimMismatch(name, len(sel), n))
	}
	return n
}

// DistEntry computes one entry of DistBlock — bit-identical to the block
// kernel (and to Dist: the unrolled accumulation preserves coordinate
// order).
func DistEntry(center, q []float64) float64 {
	return math.Sqrt(dist2Seq(center, q))
}

// Pivot pre-filter — the cheap first test of the leaf select kernel.
// Freeze stores, for every leaf, a float64 pivot point (the centroid of its
// item centers) and per item the float32 round-up of dist(pivot, c_i) +
// rad_i. One exact distance dCent = dist(q, pivot) per visited leaf then
// bounds every item by the triangle inequality:
//
//	mindist_i = dist(q, c_i) − rad_i − qr ≥ dCent − pd_i − qr
//
// so most items of a leaf whose pivot sits beyond dk settle on a single
// float32 load and compare before the per-dimension narrow bound runs at
// all. The margin here is absolute, 1e-12·dCent, not the relative lbEps
// shave of the squared-space refine: the bound is a difference of two
// potentially-large near-equal distances, so its absolute float64 error
// scales with dCent (~1e-15·dCent for the handful of operations involved)
// while the difference itself can be arbitrarily small — a margin
// proportional to dCent covers the error at every scale, where a margin
// proportional to the difference would not. A NaN pd (or dCent) fails the
// comparison and falls through to the refine, keeping the exact path
// authoritative. (The reverse-triangle test — dropping items whose whole
// band around the pivot lies inside dCent + qr + dk — was measured too:
// on the bench workload dk stays larger than a leaf's spread, so it fired
// on 4 of 10⁵ items while taxing all of them; it is deliberately absent.)
//
// The kernel runs in two passes over one leaf. Pass 1 applies only the
// pivot compare and gathers the indices that survive it into sel — the
// store is unconditional and the count advances by the comparison result,
// so the ~50/50 drop/refine outcome costs no branch mispredictions. Pass 2
// walks the gathered indices and applies the narrow per-dimension bound,
// compacting survivors into the front of sel in ascending index order — the
// order the exact fallback must replay in. The refine threshold uses sr,
// the freeze-time float32 round-up of slack_i + rad_i, which keeps the
// per-item threshold to one load and one add; rounding the precomputed sum
// up only raises thr, so conservatism is preserved, and both addends are
// non-negative by the domain rules above.

// SelectLeafSphereF32 is the fused leaf select kernel. Survivor indices go
// into sel (room for the item count required); every dropped entry has
// exact mindist > dk. The thr terms must be non-negative — see the domain
// note above.
func SelectLeafSphereF32(sel []int32, pd, sr []float32, dCent float64, centers []float32, q []float64, qr, dk float64) int {
	n := selLen("SelectLeafSphereF32", sel, len(centers), len(q))
	if len(pd) != n || len(sr) != n {
		panic(dimMismatch("SelectLeafSphereF32", len(pd), n))
	}
	mFar := dCent - qr - dk - 1e-12*dCent
	m := 0
	for i := 0; i < n; i++ {
		sel[m] = int32(i)
		keep := 0
		if !(float64(pd[i]) < mFar) { // NaN keeps: exact path stays authoritative
			keep = 1
		}
		m += keep
	}
	dkqr := dk + qr
	d := len(q)
	cnt := 0
	for s2 := 0; s2 < m; s2++ {
		i := int(sel[s2])
		thr := dkqr + float64(sr[i])
		c := centers[i*d : i*d+d]
		var s float64
		j := 0
		for ; j+4 <= d; j += 4 {
			d0 := float64(c[j]) - q[j]
			d1 := float64(c[j+1]) - q[j+1]
			d2 := float64(c[j+2]) - q[j+2]
			d3 := float64(c[j+3]) - q[j+3]
			s += d0*d0 + d1*d1 + d2*d2 + d3*d3
		}
		for ; j < d; j++ {
			dd := float64(c[j]) - q[j]
			s += dd * dd
		}
		if !selDrop(s, thr*thr) {
			sel[cnt] = int32(i)
			cnt++
		}
	}
	return cnt
}
