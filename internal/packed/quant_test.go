package packed

import (
	"math"
	"math/rand"
	"testing"

	"hyperdom/internal/geom"
)

// quantFixture holds one leaf of n random items frozen into a sphere tree
// and a rect tree — the item tier is kind-agnostic, but each kind freezes
// through its own builder path.
type quantFixture struct {
	st, rt       *Tree
	sLeaf, rLeaf int32
}

func buildQuantFixture(rng *rand.Rand, dim, n int, spread float64) *quantFixture {
	fx := &quantFixture{}
	items := make([]geom.Item, n)
	for i := range items {
		c := make([]float64, dim)
		for j := range c {
			c[j] = rng.NormFloat64() * spread
		}
		items[i] = geom.Item{ID: i, Sphere: geom.Sphere{Center: c, Radius: math.Abs(rng.NormFloat64() * spread / 10)}}
	}
	fx.st, fx.sLeaf = freezeLeaf(KindSphere, dim, items)
	fx.rt, fx.rLeaf = freezeLeaf(KindRect, dim, items)
	return fx
}

// freezeLeaf freezes items as one leaf under a single-child root of the
// given kind, with the root bound taken from the first item.
func freezeLeaf(kind Kind, dim int, items []geom.Item) (*Tree, int32) {
	b := NewBuilder(kind, dim)
	leaf := b.Leaf(items)
	c, r := items[0].Sphere.Center, items[0].Sphere.Radius
	if kind == KindSphere {
		node := b.InternalSphere([]int32{leaf}, [][]float64{c}, []float64{r})
		return b.FinishSphere(node, c, r), leaf
	}
	node := b.InternalRect([]int32{leaf}, [][]float64{c}, [][]float64{c})
	return b.FinishRect(node, c, c), leaf
}

// itemMinDists returns the exact per-item mindist the traversal prunes on,
// dist − radius − qr clamped at 0, for every item of leaf n.
func itemMinDists(tr *Tree, n int32, q geom.Sphere) []float64 {
	exact := make([]float64, len(tr.LeafItems(n)))
	tr.LeafDists(n, q.Center, exact)
	for i, r := range tr.ItemRadii(n) {
		exact[i] = math.Max(exact[i]-r-q.Radius, 0)
	}
	return exact
}

// leafSelectKept runs LeafQuantSelect and fails the test if it dropped an
// item whose exact mindist does not exceed dk — the contract the two-phase
// traversal relies on. It returns which items survived.
func leafSelectKept(t *testing.T, tr *Tree, n int32, q geom.Sphere, dk float64, exact []float64) []bool {
	t.Helper()
	sel := make([]int32, len(exact))
	kept := make([]bool, len(exact))
	for _, i := range sel[:tr.LeafQuantSelect(n, q, dk, sel)] {
		kept[i] = true
	}
	for i, e := range exact {
		if !kept[i] && !(e > dk) {
			t.Fatalf("item %d dropped but exact mindist %v <= dk %v (dim=%d n=%d)",
				i, e, dk, tr.Dim(), len(exact))
		}
	}
	return kept
}

// TestQuantBoundsConservative checks the select contract over both kinds
// on well-behaved random geometry across several scales, with dk swept
// through every item's own mindist (the fuzz target covers the hostile
// inputs).
func TestQuantBoundsConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, spread := range []float64{1e-6, 1, 1e3, 1e12} {
		for trial := 0; trial < 30; trial++ {
			dim := 2 + rng.Intn(9)
			n := 1 + rng.Intn(8)
			fx := buildQuantFixture(rng, dim, n, spread)
			qc := make([]float64, dim)
			for j := range qc {
				qc[j] = rng.NormFloat64() * spread
			}
			q := geom.Sphere{Center: qc, Radius: math.Abs(rng.NormFloat64() * spread / 8)}
			for _, leaf := range []struct {
				tr *Tree
				n  int32
			}{{fx.st, fx.sLeaf}, {fx.rt, fx.rLeaf}} {
				exact := itemMinDists(leaf.tr, leaf.n, q)
				for _, dk := range append([]float64{0, q.Radius}, exact...) {
					leafSelectKept(t, leaf.tr, leaf.n, q, dk, exact)
				}
			}
		}
	}
}

// TestQuantBoundsTight guards the other half of the design: on
// well-scaled data the float32 tier must track the exact mindist closely
// enough to prune with — a select that kept everything would satisfy
// conservatism while silently disabling the coarse filter. f32 carries
// ~1e-7 relative center error, so every item whose mindist exceeds dk by
// a relative 1e-5 must be dropped.
func TestQuantBoundsTight(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	dim, n := 6, 8
	fx := buildQuantFixture(rng, dim, n, 100)
	qc := make([]float64, dim)
	for j := range qc {
		qc[j] = rng.NormFloat64()*100 + 500 // far query: mindists well above 0
	}
	q := geom.Sphere{Center: qc, Radius: 1}
	for _, leaf := range []struct {
		kind string
		tr   *Tree
		n    int32
	}{{"sphere", fx.st, fx.sLeaf}, {"rect", fx.rt, fx.rLeaf}} {
		exact := itemMinDists(leaf.tr, leaf.n, q)
		for i, e := range exact {
			if kept := leafSelectKept(t, leaf.tr, leaf.n, q, e*(1-1e-5), exact); kept[i] {
				t.Fatalf("%s item %d kept at dk %v, exact mindist %v", leaf.kind, i, e*(1-1e-5), e)
			}
		}
	}
}

// TestQuantEntryAccessors: the per-survivor exact fallback must equal the
// streaming kernel bit for bit.
func TestQuantEntryAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	dim, n := 5, 7
	fx := buildQuantFixture(rng, dim, n, 10)
	qc := make([]float64, dim)
	for j := range qc {
		qc[j] = rng.NormFloat64() * 10
	}
	dst := make([]float64, n)
	fx.st.LeafDists(fx.sLeaf, qc, dst)
	for i := 0; i < n; i++ {
		if got := fx.st.LeafDistAt(fx.sLeaf, int32(i), qc); math.Float64bits(got) != math.Float64bits(dst[i]) {
			t.Fatalf("LeafDistAt(%d) = %v, block %v", i, got, dst[i])
		}
	}
}
