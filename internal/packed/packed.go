// Package packed provides the read-optimized "frozen" representation of
// the tree substrates (ISSUE 5). A packed.Tree flattens a pointer-based
// index into structure-of-arrays form: for every node, the bounding
// geometry of its children (or the spheres of its leaf items) is stored in
// one contiguous []float64 block — all coordinates of entry 0..n-1
// back-to-back — with radii and child offsets in parallel slices. The kNN
// traversal's mindist loop over a node then becomes a single streaming
// pass over sequential memory (vec.MinDistSphereBlock and friends) instead
// of a pointer chase through per-node heap objects.
//
// A frozen tree is an immutable snapshot. The substrates build one through
// their Freeze method and cache it; mutating the source tree (Insert,
// Delete, BulkLoad) auto-thaws — the cached snapshot is dropped and
// searches fall back to the pointer path until the next Freeze. See
// DESIGN.md §11 for the freeze/thaw contract.
//
// Bit-exactness: the packed traversal (package knn) produces verdicts,
// result sets and work stats identical to the pointer path, because the
// block kernels preserve the scalar accumulation order (package vec) and
// the entry order preserves the child/item order of the source nodes.
package packed

import (
	"fmt"

	"hyperdom/internal/geom"
	"hyperdom/internal/obs"
	"hyperdom/internal/vec"
)

// Kind is the bounding geometry of internal-node entries.
type Kind uint8

const (
	// KindSphere: children are bounded by hyperspheres (SS-tree centroids,
	// M-tree pivots with covering radii).
	KindSphere Kind = iota
	// KindRect: children are bounded by axis-aligned rectangles (R-tree
	// MBRs). Leaf items are spheres regardless of kind.
	KindRect
)

// Freeze/thaw observability: how many snapshots were built and how much
// they hold. Thaws are counted by the substrates through NoteThaw.
var (
	obsFreezes = obs.New("packed.freezes")
	obsThaws   = obs.New("packed.thaws")
	obsNodes   = obs.New("packed.nodes_frozen")
	obsItems   = obs.New("packed.items_frozen")
)

// NoteThaw records one auto-thaw (a mutation dropping a cached snapshot).
func NoteThaw() {
	if obs.On() {
		obsThaws.Inc()
	}
}

// Tree is the frozen SoA snapshot of one index. All fields are built once
// by a Builder and never mutated afterwards, so a Tree is safe for
// unsynchronised concurrent reads.
//
// Nodes are identified by dense int32 ids. Two parallel prefix arrays
// delimit each node's entries:
//
//   - internal node i owns child entries child[childStart[i]:childStart[i+1]],
//     whose bounds live at cCenters[e*dim:(e+1)*dim]+cRadii[e] (KindSphere)
//     or cLo/cHi[e*dim:(e+1)*dim] (KindRect);
//   - leaf node i owns items[itemStart[i]:itemStart[i+1]], whose sphere
//     geometry is mirrored into iCenters/iRadii for the streaming pass.
type Tree struct {
	kind      Kind
	dim       int
	root      int32 // -1 for an empty tree
	substrate Substrate

	leaf       []bool
	childStart []int32 // len nodes+1
	itemStart  []int32 // len nodes+1

	child    []int32
	cCenters []float64 // KindSphere: len(child)*dim
	cRadii   []float64 // KindSphere: len(child)
	cLo, cHi []float64 // KindRect: len(child)*dim each

	items    []geom.Item
	iCenters []float64 // len(items)*dim
	iRadii   []float64 // len(items)

	rootCenter     []float64 // KindSphere root bound
	rootRadius     float64
	rootLo, rootHi []float64 // KindRect root bound

	// quant holds the float32 copy of the leaf items used by the
	// coarse-filter pass (ISSUE 6); see quant.go.
	quant quantTier
}

// Kind returns the bounding geometry of the tree's internal entries.
func (t *Tree) Kind() Kind { return t.kind }

// Dim returns the dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Empty reports whether the snapshot holds no nodes.
func (t *Tree) Empty() bool { return t.root < 0 }

// Root returns the root node id. Only valid when !Empty().
func (t *Tree) Root() int32 { return t.root }

// Len returns the number of items in the snapshot.
func (t *Tree) Len() int { return len(t.items) }

// NumNodes returns the number of nodes in the snapshot.
func (t *Tree) NumNodes() int { return len(t.leaf) }

// IsLeaf reports whether node n is a leaf.
func (t *Tree) IsLeaf(n int32) bool { return t.leaf[n] }

// Children returns the child node ids of internal node n. The returned
// slice aliases the snapshot; callers must not modify it.
func (t *Tree) Children(n int32) []int32 {
	return t.child[t.childStart[n]:t.childStart[n+1]]
}

// LeafItems returns the items of leaf n. The returned slice aliases the
// snapshot; callers must not modify it.
func (t *Tree) LeafItems(n int32) []geom.Item {
	return t.items[t.itemStart[n]:t.itemStart[n+1]]
}

// RootMinDist returns the minimum distance between the query sphere and
// the root's bound — the same value the pointer path computes from the
// root cursor.
func (t *Tree) RootMinDist(q geom.Sphere) float64 {
	if t.kind == KindRect {
		return geom.MinDistRectSphere(geom.Rect{Lo: t.rootLo, Hi: t.rootHi}, q)
	}
	return geom.MinDist(geom.Sphere{Center: t.rootCenter, Radius: t.rootRadius}, q)
}

// ChildMinDists streams one pass over internal node n's packed child
// bounds and writes the per-child minimum distance to the query sphere
// into dst, which must have length len(Children(n)). Values are
// bit-identical to the pointer path's per-child geom.MinDist /
// geom.MinDistRectSphere calls.
func (t *Tree) ChildMinDists(n int32, q geom.Sphere, dst []float64) {
	lo, hi := t.childStart[n]*int32(t.dim), t.childStart[n+1]*int32(t.dim)
	if t.kind == KindRect {
		vec.MinDistRectBlock(dst, t.cLo[lo:hi], t.cHi[lo:hi], q.Center, q.Radius)
		return
	}
	vec.MinDistSphereBlock(dst, t.cCenters[lo:hi], t.cRadii[t.childStart[n]:t.childStart[n+1]], q.Center, q.Radius)
}

// LeafDists streams one pass over leaf n's packed item centers and writes
// the center-to-center distance from the query into dst (length
// len(LeafItems(n))). The traversal derives the item's MaxDist and MinDist
// from it with one addition each, saving the second sqrt the pointer path
// historically paid; the distances are bit-identical to vec.Dist.
func (t *Tree) LeafDists(n int32, q []float64, dst []float64) {
	lo, hi := t.itemStart[n]*int32(t.dim), t.itemStart[n+1]*int32(t.dim)
	vec.DistBlock(dst, t.iCenters[lo:hi], q)
}

// ItemRadii returns the packed radii of leaf n's items, parallel to
// LeafItems. The slice aliases the snapshot.
func (t *Tree) ItemRadii(n int32) []float64 {
	return t.iRadii[t.itemStart[n]:t.itemStart[n+1]]
}

// Builder assembles a Tree bottom-up. The substrates' Freeze methods walk
// their pointer nodes post-order: children are added first, then the
// parent references their ids. Entry blocks are appended at node creation,
// so each node's block is contiguous by construction.
type Builder struct {
	t *Tree
}

// NewBuilder starts a snapshot of the given kind and dimensionality.
func NewBuilder(kind Kind, dim int) *Builder {
	if dim <= 0 {
		panic(fmt.Sprintf("packed: NewBuilder with dimensionality %d", dim))
	}
	t := &Tree{kind: kind, dim: dim, root: -1}
	t.childStart = append(t.childStart, 0)
	t.itemStart = append(t.itemStart, 0)
	return &Builder{t: t}
}

func (b *Builder) newNode(leaf bool) int32 {
	id := int32(len(b.t.leaf))
	b.t.leaf = append(b.t.leaf, leaf)
	b.t.childStart = append(b.t.childStart, b.t.childStart[id])
	b.t.itemStart = append(b.t.itemStart, b.t.itemStart[id])
	return id
}

// Leaf adds a leaf node holding the given items (in order) and returns its
// id. Item structs are copied; their sphere geometry is additionally
// mirrored into the packed blocks.
func (b *Builder) Leaf(items []geom.Item) int32 {
	id := b.newNode(true)
	for _, it := range items {
		if it.Sphere.Dim() != b.t.dim {
			panic(fmt.Sprintf("packed: Leaf item of dimensionality %d in %d-dimensional tree",
				it.Sphere.Dim(), b.t.dim))
		}
		b.t.items = append(b.t.items, it)
		b.t.iCenters = append(b.t.iCenters, it.Sphere.Center...)
		b.t.iRadii = append(b.t.iRadii, it.Sphere.Radius)
	}
	b.t.itemStart[id+1] = int32(len(b.t.items))
	return id
}

// InternalSphere adds an internal node (KindSphere) whose i-th child is
// node ids[i] bounded by the sphere (centers[i], radii[i]), preserving
// order, and returns its id. Bound geometry is copied.
func (b *Builder) InternalSphere(ids []int32, centers [][]float64, radii []float64) int32 {
	if b.t.kind != KindSphere {
		panic("packed: InternalSphere on a rect-bounded builder")
	}
	if len(ids) != len(centers) || len(ids) != len(radii) {
		panic("packed: InternalSphere with mismatched child slices")
	}
	id := b.newNode(false)
	for i, c := range ids {
		b.t.child = append(b.t.child, c)
		b.t.cCenters = append(b.t.cCenters, centers[i]...)
		b.t.cRadii = append(b.t.cRadii, radii[i])
	}
	b.t.childStart[id+1] = int32(len(b.t.child))
	return id
}

// InternalRect adds an internal node (KindRect) whose i-th child is node
// ids[i] bounded by the rectangle [lo[i], hi[i]], preserving order, and
// returns its id. Bound geometry is copied.
func (b *Builder) InternalRect(ids []int32, lo, hi [][]float64) int32 {
	if b.t.kind != KindRect {
		panic("packed: InternalRect on a sphere-bounded builder")
	}
	if len(ids) != len(lo) || len(ids) != len(hi) {
		panic("packed: InternalRect with mismatched child slices")
	}
	id := b.newNode(false)
	for i, c := range ids {
		b.t.child = append(b.t.child, c)
		b.t.cLo = append(b.t.cLo, lo[i]...)
		b.t.cHi = append(b.t.cHi, hi[i]...)
	}
	b.t.childStart[id+1] = int32(len(b.t.child))
	return id
}

// FinishSphere seals the snapshot with root node id and its bounding
// sphere and returns the immutable Tree. The bound is copied.
func (b *Builder) FinishSphere(root int32, center []float64, radius float64) *Tree {
	b.t.rootCenter = append([]float64(nil), center...)
	b.t.rootRadius = radius
	return b.finish(root)
}

// FinishRect seals the snapshot with root node id and its bounding
// rectangle and returns the immutable Tree. The bound is copied.
func (b *Builder) FinishRect(root int32, lo, hi []float64) *Tree {
	b.t.rootLo = append([]float64(nil), lo...)
	b.t.rootHi = append([]float64(nil), hi...)
	return b.finish(root)
}

// FinishEmpty seals an empty snapshot (no nodes).
func (b *Builder) FinishEmpty() *Tree { return b.finish(-1) }

func (b *Builder) finish(root int32) *Tree {
	t := b.t
	b.t = nil // a Builder is single-use
	if root >= int32(len(t.leaf)) {
		panic(fmt.Sprintf("packed: Finish with root %d of %d nodes", root, len(t.leaf)))
	}
	t.root = root
	t.buildQuant()
	if obs.On() {
		obsFreezes.Inc()
		obsNodes.Add(uint64(len(t.leaf)))
		obsItems.Add(uint64(len(t.items)))
	}
	return t
}
