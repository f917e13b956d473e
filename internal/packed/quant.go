package packed

import (
	"math"

	"hyperdom/internal/geom"
	"hyperdom/internal/vec"
)

// Quantized coarse-filter tier (ISSUE 6). Freeze builds, next to the exact
// float64 item block of every leaf, a narrow float32 copy of the item
// centers plus two per-item float32 threshold terms and a per-leaf pivot.
// A traversal streams the narrow copy first (vec.SelectLeafSphereF32) to
// drop every item whose mindist certainly exceeds the current kth distance,
// and touches the exact float64 block only for the survivors — same
// answers, a fraction of the bytes.
//
// The conservatism is bought at build time, not proven per query: every
// item carries a float32 slack that upper-bounds how far its float32
// center can understate the exact mindist, measured in float64 from the
// very values the kernel reads (center displacement ‖ĉ−c‖, inflated by a
// 1e-9 relative margin and rounded up) and folded, with the round-up
// radius, into one threshold sum. Degenerate inputs — NaN coordinates,
// magnitudes beyond float32 range, negative radii — inflate the sum to
// +Inf (or leave NaN in it), which never prunes, keeping the exact path
// authoritative. FuzzQuantizedLowerBound exercises exactly these edges.
// See DESIGN.md §12.
//
// Only leaf items are quantized: child bounds prune too rarely at node
// level for a narrow pass plus per-survivor exact re-scoring to beat the
// streaming exact kernel.
type quantTier struct {
	iCen32 []float32 // len(items)*dim, round-to-nearest centers

	// Pivot pre-filter (the cheap first test of the fused leaf select):
	// per leaf the mean of its item centers in float64, and per item the
	// float32 round-up of dist(pivot, c) + rad. One exact distance to the
	// pivot per visited leaf then settles most items on a single float32
	// compare via the triangle inequality — see the pivot doc block in
	// vec/quant.go. Degenerate coordinates poison the pivot with NaN,
	// which fails every drop comparison and routes the whole leaf to the
	// refine stage.
	leafPivot  []float64 // nodes*dim
	iPivotHi32 []float32 // len(items)

	// Per-item refine-threshold sums: the float32 round-up of slack +
	// radius, so the hot loop's threshold is one load and one add.
	// Rounding the sum up only raises the threshold, which keeps the drop
	// decision conservative.
	iSR32 []float32 // len(items)
}

// f32Up returns the smallest float32 whose value is >= x (NaN stays NaN,
// ±Inf stay themselves; finite x beyond float32 range saturates correctly:
// 1e300 → +Inf, -1e300 → -MaxFloat32).
func f32Up(x float64) float32 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// slackMargin inflates a float64-measured slack so that the float32 value
// stored is a guaranteed upper bound despite the measurement's own
// rounding (relative error ~1e-15, margin 1e-9).
func slackMargin(s float64) float32 { return f32Up(s * (1 + 1e-9)) }

// quantItems appends the float32 tier of one leaf's item block (n entries,
// centers[e*dim:], radii[e]): round-to-nearest centers and the per-entry
// threshold sum slackMargin(‖ĉ−c‖) + f32Up(r), rounded up.
func quantItems(cen32, sr []float32, centers, radii []float64, dim int) ([]float32, []float32) {
	for e, r := range radii {
		var disp2 float64
		for _, cj := range centers[e*dim : (e+1)*dim] {
			w := float32(cj)
			cen32 = append(cen32, w)
			d := float64(w) - cj
			disp2 += d * d
		}
		s := math.Sqrt(disp2)
		if r < 0 {
			// A negative radius would put a mixed-sign term into the select
			// kernel's threshold sum, whose cancellation analysis assumes
			// all-non-negative terms; infinite slack disables the entry
			// (never prunes) and leaves the exact path authoritative.
			s = math.Inf(1)
		}
		sr = append(sr, f32Up(float64(slackMargin(s))+float64(f32Up(r))))
	}
	return cen32, sr
}

// buildQuant fills the narrow tier and the pivot of every leaf. Called
// once by finish(); one pass over data the builder just wrote, so freezing
// stays O(data).
func (t *Tree) buildQuant() {
	q := &t.quant
	dim := t.dim
	q.leafPivot = make([]float64, len(t.leaf)*dim)
	for n := range t.leaf {
		is, ie := t.itemStart[n], t.itemStart[n+1]
		if ie == is {
			continue
		}
		centers := t.iCenters[is*int32(dim) : ie*int32(dim)]
		radii := t.iRadii[is:ie]
		q.iCen32, q.iSR32 = quantItems(q.iCen32, q.iSR32, centers, radii, dim)
		// Pivot = centroid of the leaf's item centers (any point works for
		// correctness; the centroid keeps the per-item distances — and with
		// them the bound's looseness — small).
		pv := q.leafPivot[n*dim : n*dim+dim]
		for e := range radii {
			for j := 0; j < dim; j++ {
				pv[j] += centers[e*dim+j]
			}
		}
		for j := range pv {
			pv[j] /= float64(len(radii))
		}
		for e, r := range radii {
			d := vec.DistEntry(pv, centers[e*dim:(e+1)*dim])
			// Clamp at 0: a negative value would flip the direction the
			// relative rounding margin must point, and raising the bound
			// only loosens it, so the clamp stays conservative. A NaN
			// passes through slackMargin and fails every drop comparison
			// at query time.
			hi := d + r
			if hi < 0 {
				hi = 0
			}
			q.iPivotHi32 = append(q.iPivotHi32, slackMargin(hi))
		}
	}
}

// LeafQuantSelect streams leaf n's narrow item tier, fused with the pivot
// pre-filter: one exact distance to the leaf's pivot, then a single pass
// in which most items settle on one float32 compare (triangle inequality)
// and only the unsettled ones pay the per-dimension narrow bound. It
// writes into sel the indices (within the leaf) of the items that survive
// and returns their count; every dropped item has exact mindist
// (dist − radius − query radius) > dk. Survivors must take the exact
// per-item fallback (LeafDistAt). sel needs room for the leaf's full item
// count; q.Radius and dk must be non-negative (see vec/quant.go).
func (t *Tree) LeafQuantSelect(n int32, q geom.Sphere, dk float64, sel []int32) int {
	is, ie := t.itemStart[n], t.itemStart[n+1]
	lo, hi := is*int32(t.dim), ie*int32(t.dim)
	qt := &t.quant
	pv := qt.leafPivot[int(n)*t.dim : (int(n)+1)*t.dim]
	dCent := vec.DistEntry(pv, q.Center)
	return vec.SelectLeafSphereF32(sel, qt.iPivotHi32[is:ie], qt.iSR32[is:ie], dCent,
		qt.iCen32[lo:hi], q.Center, q.Radius, dk)
}

// LeafDistAt computes the exact center distance of leaf n's i-th item —
// bit-identical to entry i of a LeafDists pass.
func (t *Tree) LeafDistAt(n int32, i int32, q []float64) float64 {
	e := t.itemStart[n] + i
	return vec.DistEntry(t.iCenters[e*int32(t.dim):(e+1)*int32(t.dim)], q)
}
