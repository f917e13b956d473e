package vec

import (
	"math"
	"math/rand"
	"testing"
)

// TestEntryHelpersMatchBlocks locks the per-entry exact fallback to its
// block kernel bit for bit — the two-phase traversal mixes both on one
// leaf, so any divergence would break the packed-vs-pointer equality.
func TestEntryHelpersMatchBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(12)
		n := 1 + rng.Intn(9)
		centers := make([]float64, n*d)
		q := make([]float64, d)
		for i := range centers {
			centers[i] = rng.NormFloat64() * 50
		}
		for j := range q {
			q[j] = rng.NormFloat64() * 50
		}
		if trial%7 == 0 { // non-finite poke
			centers[rng.Intn(len(centers))] = math.NaN()
		}

		dst := make([]float64, n)
		DistBlock(dst, centers, q)
		for i := 0; i < n; i++ {
			got := DistEntry(centers[i*d:(i+1)*d], q)
			if math.Float64bits(got) != math.Float64bits(dst[i]) {
				t.Fatalf("trial %d: DistEntry[%d] = %v, block %v", trial, i, got, dst[i])
			}
		}
	}
}

// f32Up32 rounds x up to the nearest float32 (test-local twin of the
// packed builder's helper).
func f32Up32(x float64) float32 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// TestQuantKernelsConservative drives the leaf select kernel directly with
// exactly-representable float32 centers and radii and zero slack, so the
// kernel's own arithmetic is the only error source: every dropped entry
// must have exact mindist > dk, and every entry whose mindist clears dk by
// a relative 1e-6 of its center distance must be dropped.
func TestQuantKernelsConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(10)
		n := 1 + rng.Intn(8)
		cen64 := make([]float64, n*d)
		cen32 := make([]float32, n*d)
		rad := make([]float64, n)
		sr := make([]float32, n)
		pd := make([]float32, n)
		pivot := make([]float64, d)
		q := make([]float64, d)
		for i := range cen64 {
			cen32[i] = float32(rng.NormFloat64() * 40)
			cen64[i] = float64(cen32[i])
			pivot[i%d] += cen64[i] / float64(n)
		}
		for i := range rad {
			sr[i] = float32(math.Abs(rng.NormFloat64() * 4))
			rad[i] = float64(sr[i])
			pd[i] = f32Up32((DistEntry(pivot, cen64[i*d:(i+1)*d]) + rad[i]) * (1 + 1e-9))
		}
		for j := range q {
			q[j] = rng.NormFloat64() * 40
		}
		qr := math.Abs(rng.NormFloat64() * 2)
		dCent := DistEntry(pivot, q)

		exact := make([]float64, n)
		dist := make([]float64, n)
		DistBlock(dist, cen64, q)
		for i := range exact {
			exact[i] = math.Max(dist[i]-rad[i]-qr, 0)
		}
		sel := make([]int32, n)
		for _, dk := range append([]float64{0, qr}, exact...) {
			cnt := SelectLeafSphereF32(sel, pd, sr, dCent, cen32, q, qr, dk)
			kept := make([]bool, n)
			for _, i := range sel[:cnt] {
				kept[i] = true
			}
			for i := range exact {
				if !kept[i] && !(exact[i] > dk) {
					t.Fatalf("trial %d: entry %d dropped with exact mindist %v <= dk %v", trial, i, exact[i], dk)
				}
				if kept[i] && exact[i]-dk > 1e-6*dist[i] {
					t.Fatalf("trial %d: entry %d kept with exact mindist %v well above dk %v", trial, i, exact[i], dk)
				}
			}
		}
	}
}

// TestQuantKernelClamp: degenerate narrow inputs (NaN center, infinite or
// NaN threshold sum, NaN pivot distance) must never prune — the entry
// survives and the exact path decides.
func TestQuantKernelClamp(t *testing.T) {
	q := []float64{1, 2}
	sel := make([]int32, 1)
	nan32 := float32(math.NaN())
	inf32 := float32(math.Inf(1))
	nan := math.NaN()
	far := []float32{100, 100}

	if n := SelectLeafSphereF32(sel, []float32{nan32}, []float32{0}, nan, far, q, 0, 1); n != 0 {
		t.Fatalf("far entry with exact data survived the refine: %d", n)
	}
	cases := []struct {
		name   string
		pd, sr float32
		dCent  float64
		center []float32
	}{
		{"NaN center", nan32, 0, nan, []float32{nan32, 0}},
		{"Inf threshold", nan32, inf32, nan, far},
		{"NaN threshold", nan32, nan32, nan, far},
		{"NaN pivot distance", 0, 0, nan, []float32{1, 2}},
	}
	for _, c := range cases {
		if n := SelectLeafSphereF32(sel, []float32{c.pd}, []float32{c.sr}, c.dCent, c.center, q, 0, 1); n != 1 {
			t.Fatalf("%s: entry dropped, want kept", c.name)
		}
	}
}
