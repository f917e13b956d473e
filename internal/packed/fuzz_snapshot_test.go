package packed

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hyperdom/internal/geom"
)

// fuzzSeedSnapshot builds a small valid snapshot of each kind for the
// fuzz seed corpus.
func fuzzSeedSnapshot(kind Kind) []byte {
	var pt *Tree
	if kind == KindSphere {
		b := NewBuilder(KindSphere, 2)
		l0 := b.Leaf([]geom.Item{
			{ID: 1, Sphere: geom.Sphere{Center: []float64{0, 0}, Radius: 0.5}},
			{ID: 2, Sphere: geom.Sphere{Center: []float64{1, 0}, Radius: 0.25}},
		})
		l1 := b.Leaf([]geom.Item{
			{ID: 3, Sphere: geom.Sphere{Center: []float64{4, 4}, Radius: 1}},
		})
		root := b.InternalSphere([]int32{l0, l1},
			[][]float64{{0.5, 0}, {4, 4}}, []float64{1.25, 1})
		pt = b.FinishSphere(root, []float64{2, 2}, 4)
	} else {
		b := NewBuilder(KindRect, 2)
		l0 := b.Leaf([]geom.Item{
			{ID: 1, Sphere: geom.Sphere{Center: []float64{0, 0}, Radius: 0.5}},
		})
		root := b.InternalRect([]int32{l0},
			[][]float64{{-1, -1}}, [][]float64{{1, 1}})
		pt = b.FinishRect(root, []float64{-1, -1}, []float64{1, 1})
	}
	var buf bytes.Buffer
	if _, err := pt.WriteTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzSnapshotOpen is the corrupt-input hardening gate (ISSUE 10): no
// byte sequence may make the snapshot decoder panic, slice out of bounds,
// or fail with anything but the typed sentinel errors — and anything it
// does accept must be safely traversable.
func FuzzSnapshotOpen(f *testing.F) {
	sphere := fuzzSeedSnapshot(KindSphere)
	rect := fuzzSeedSnapshot(KindRect)
	f.Add(sphere)
	f.Add(rect)
	f.Add([]byte{})
	f.Add([]byte(magicLE))
	f.Add(sphere[:len(sphere)/2])
	f.Add(sphere[:fixedHdrLen])
	flipped := bytes.Clone(sphere)
	flipped[24] ^= 0xff
	f.Add(flipped)
	payload := bytes.Clone(rect)
	payload[len(payload)-1] ^= 0x01
	f.Add(payload)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := OpenBytes(data)
		if err != nil {
			for _, sentinel := range []error{
				ErrBadMagic, ErrBadVersion, ErrTruncated,
				ErrChecksum, ErrCorrupt, ErrIncompatible,
			} {
				if errors.Is(err, sentinel) {
					return
				}
			}
			t.Fatalf("untyped decode error: %v", err)
		}
		if tr.Empty() {
			return
		}
		// Whatever decoded must be safe to walk: visit every reachable
		// node, stream every accessor the traversals use.
		q := geom.Sphere{Center: make([]float64, tr.Dim()), Radius: 1}
		_ = tr.RootMinDist(q)
		stack := []int32{tr.Root()}
		var dst []float64
		var sel []int32
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if tr.IsLeaf(n) {
				items := tr.LeafItems(n)
				dst = append(dst[:0], make([]float64, len(items))...)
				tr.LeafDists(n, q.Center, dst)
				sel = append(sel[:0], make([]int32, len(items))...)
				tr.LeafQuantSelect(n, q, 1, sel)
				continue
			}
			kids := tr.Children(n)
			dst = append(dst[:0], make([]float64, len(kids))...)
			tr.ChildMinDists(n, q, dst)
			stack = append(stack, kids...)
		}
	})
}

// TestSnapshotV1Rejected: a file written in format v1 — which carried the
// child-bound tiers and the int8 tier this build no longer reads — fails
// with the typed ErrBadVersion before any section is parsed. The v1 bytes
// are the v1-header seed of the FuzzSnapshotOpen corpus.
func TestSnapshotV1Rejected(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzSnapshotOpen", "v1-header"))
	if err != nil {
		t.Fatal(err)
	}
	_, body, _ := strings.Cut(string(raw), "\n")
	lit, ok := strings.CutPrefix(strings.TrimSpace(body), "[]byte(")
	if !ok {
		t.Fatalf("seed is not a []byte corpus entry")
	}
	v1, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("seed literal: %v", err)
	}
	if v := binary.LittleEndian.Uint32([]byte(v1)[8:]); v != 1 {
		t.Fatalf("seed is format v%d, want v1", v)
	}
	if _, err := OpenBytes([]byte(v1)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("v1 snapshot: error %v, want ErrBadVersion", err)
	}
}
