// Snapshot persistence (ISSUE 10): the on-disk form of a frozen Tree.
//
// A packed.Tree is already structure-of-arrays — plain numeric blocks plus
// int32 prefix offsets, no pointers — so the file format is little more
// than a checksummed table of contents over those blocks written verbatim
// in little-endian order:
//
//	[0,  8)  magic "HDSNAPLE" (the trailing LE doubles as the byte-order mark)
//	[8, 12)  format version (u32, currently 2)
//	[12,16)  header CRC-32C over [0, hdrLen) with this field zeroed
//	[16,20)  hdrLen: fixed fields + section table, the CRC-covered prefix
//	[20,40)  dim, nodes, children, items (u32 each), root (i32)
//	[40,44)  kind, substrate, tiers (coarse-tier mask, 1 = f32), flags (u8 each)
//	[44,48)  section count (u32)
//	[48,72)  rootRadius, slackRel, pivotRel (f64 bits each)
//	[72, ..) section table: {id u32, CRC-32C u32, off u64, len u64} ascending
//	         by id, offsets 64-byte aligned and ascending
//	[...  )  raw section payloads
//
// Every section's expected element count is derivable from the header
// alone (see secSpecs), so a reader never trusts a length field further
// than the arithmetic it can check — the foundation of the corrupt-input
// hardening FuzzSnapshotOpen locks in.
//
// Two load paths share one decoder. Load/OpenBytes copy every block out of
// the file bytes and verify every section CRC — the portable path. Open
// maps the file (syscall.Mmap behind a build tag) and, on little-endian
// hosts, points the Tree's slices straight into the mapping via
// unsafe.Slice: open+validate replaces rebuild, and the page cache — not
// the Go heap — holds cold shards. Structural validation (prefix
// monotonicity, child-id acyclicity, exact section lengths) always runs;
// per-section CRCs are opt-in on the mmap path (VerifyChecksums) so a
// multi-GB shard is not forced resident just to open it.
//
// The header stamps the freeze-time quant-slack parameters (slackRel,
// pivotRel). The coarse-filter kernels' conservatism proof fixes these
// constants at build time (vec/quant.go); a loader compiled with different
// margins must reject the file rather than serve bounds its kernels cannot
// honour, so a mismatch is ErrIncompatible, not a warning.
package packed

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"unsafe"

	"hyperdom/internal/obs"
)

// FormatVersion is the snapshot format this build writes and reads. A file
// of any other version fails with ErrBadVersion and is re-minted by
// re-freezing.
const FormatVersion = 2

const (
	magicLE = "HDSNAPLE"
	magicBE = "HDSNAPBE" // never written; recognised for an actionable error

	fixedHdrLen = 72
	secEntryLen = 24
	secAlign    = 64

	// tiersF32: the float32 item tier is present. buildQuant always
	// constructs it, so it is the only mask a v2 file may carry.
	tiersF32 = 1

	// Freeze-time conservatism margins stamped into the header: the
	// relative slack inflation of slackMargin and the relative pivot
	// margin of the fused leaf kernels (vec/quant.go). A reader whose
	// compiled-in margins differ must reject the snapshot.
	slackRelParam = 1e-9
	pivotRelParam = 1e-12

	// Validation caps: int32 node/entry ids bound everything by 2^31, and
	// the dimensionality cap keeps count arithmetic far from int64
	// overflow (2^31 entries × 2^16 dim × 8 bytes < 2^62).
	maxSnapDim   = 1 << 16
	maxSnapCount = 1<<31 - 2
)

// Typed load errors. Every load failure wraps exactly one of these, so
// callers can errors.Is-dispatch (e.g. rebuild on ErrIncompatible, alert
// on ErrChecksum) without parsing messages.
var (
	ErrBadMagic     = errors.New("packed: not a hyperdom snapshot")
	ErrBadVersion   = errors.New("packed: unsupported snapshot version")
	ErrTruncated    = errors.New("packed: truncated snapshot")
	ErrChecksum     = errors.New("packed: snapshot checksum mismatch")
	ErrCorrupt      = errors.New("packed: corrupt snapshot")
	ErrIncompatible = errors.New("packed: incompatible snapshot")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot load/store observability (ISSUE 10): exported on /metrics as
// hyperdom_snapshot_*.
var (
	obsSnapOpened  = obs.New("snapshot.files_opened")
	obsSnapWritten = obs.New("snapshot.files_written")
	obsSnapMapped  = obs.New("snapshot.bytes_mapped")
	obsSnapCRCFail = obs.New("snapshot.checksum_failures")
	histSnapLoad   = obs.GetOrNewHistogram("snapshot.load_latency", "")
)

// Substrate records which tree substrate froze a snapshot. Routing layers
// (shard manifests, hyperdomd collections) use it to refuse a file built
// for a different substrate than the one they were configured to serve.
type Substrate uint8

const (
	SubstrateUnknown Substrate = iota
	SubstrateSSTree
	SubstrateMTree
	SubstrateRTree
)

func (s Substrate) String() string {
	switch s {
	case SubstrateSSTree:
		return "sstree"
	case SubstrateMTree:
		return "mtree"
	case SubstrateRTree:
		return "rtree"
	}
	return "unknown"
}

// SubstrateFromString is the inverse of Substrate.String; unrecognised
// names map to SubstrateUnknown.
func SubstrateFromString(s string) Substrate {
	switch s {
	case "sstree":
		return SubstrateSSTree
	case "mtree":
		return SubstrateMTree
	case "rtree":
		return SubstrateRTree
	}
	return SubstrateUnknown
}

// Substrate returns the substrate that froze this snapshot
// (SubstrateUnknown for trees built before stamping existed).
func (t *Tree) Substrate() Substrate { return t.substrate }

// SetSubstrate stamps the substrate origin into the snapshot under
// construction; the substrates' Freeze methods call it so the information
// survives serialization.
func (b *Builder) SetSubstrate(s Substrate) { b.t.substrate = s }

// Section ids, in both file order and ascending numeric order (the table
// is required to be strictly ascending). Which ids appear in a given file
// depends on kind and emptiness; secSpecs is the single source of truth
// for the expected element count of every section.
const (
	secLeaf uint32 = iota + 1
	secChildStart
	secItemStart
	secChild
	secCCenters
	secCRadii
	secCLo
	secCHi
	secItemIDs
	secICenters
	secIRadii
	secRootCenter
	secRootLo
	secRootHi
	secQICen32
	secLeafPivot
	secIPivotHi32
	secISR32
)

// secSpec is one section's contract: element width and the exact element
// count implied by the header. n == 0 means the section must be absent.
type secSpec struct {
	id   uint32
	elem int64
	n    int64
}

// secSpecs derives every section's expected shape from the header fields
// alone. Writer and reader share it, so a valid writer cannot emit a file
// its own reader would reject, and a corrupted length can never make the
// reader slice out of bounds — the count is recomputed, never trusted.
func secSpecs(kind Kind, dim, nodes, children, items int64, root int32) []secSpec {
	sphere := kind == KindSphere
	rect := kind == KindRect
	sel := func(cond bool, n int64) int64 {
		if cond {
			return n
		}
		return 0
	}
	rootN := sel(root >= 0, dim)
	return []secSpec{
		{secLeaf, 1, nodes},
		{secChildStart, 4, nodes + 1},
		{secItemStart, 4, nodes + 1},
		{secChild, 4, children},
		{secCCenters, 8, sel(sphere, children*dim)},
		{secCRadii, 8, sel(sphere, children)},
		{secCLo, 8, sel(rect, children*dim)},
		{secCHi, 8, sel(rect, children*dim)},
		{secItemIDs, 8, items},
		{secICenters, 8, items * dim},
		{secIRadii, 8, items},
		{secRootCenter, 8, sel(sphere, rootN)},
		{secRootLo, 8, sel(rect, rootN)},
		{secRootHi, 8, sel(rect, rootN)},
		{secQICen32, 4, items * dim},
		{secLeafPivot, 8, nodes * dim},
		{secIPivotHi32, 4, items},
		{secISR32, 4, items},
	}
}

// hostLE reports whether this process runs little-endian. The format is
// little-endian on disk regardless; on big-endian hosts every block is
// byte-swap-copied and the zero-copy fast path is simply unavailable.
var hostLE = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// word is any fixed-width element a section can hold. bool rides along
// because []bool is one 0/1 byte per element in Go's ABI — the leaf
// section validates every byte before casting back.
type word interface {
	~bool | ~int32 | ~float32 | ~int64 | ~float64
}

// rawBytes returns the in-memory bytes of s without copying.
func rawBytes[T word](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// leBytes returns s as little-endian bytes: an alias of the backing array
// on little-endian hosts, an element-wise swapped copy otherwise.
func leBytes[T word](s []T) []byte {
	b := rawBytes(s)
	if hostLE || len(b) == len(s) {
		return b
	}
	w := int(unsafe.Sizeof(s[0]))
	out := make([]byte, len(b))
	for i := 0; i < len(b); i += w {
		for j := 0; j < w; j++ {
			out[i+j] = b[i+w-1-j]
		}
	}
	return out
}

// decodeSlice interprets little-endian bytes b as []T. With zeroCopy, a
// little-endian host and natural alignment the result aliases b (this is
// the mmap fast path — b must outlive the slice); otherwise the elements
// are copied out, byte-swapped on big-endian hosts.
func decodeSlice[T word](b []byte, zeroCopy bool) []T {
	var z T
	w := int(unsafe.Sizeof(z))
	n := len(b) / w
	if n == 0 {
		return nil
	}
	if zeroCopy && hostLE && uintptr(unsafe.Pointer(&b[0]))%uintptr(w) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	ob := rawBytes(out)
	if hostLE || w == 1 {
		copy(ob, b)
	} else {
		for i := 0; i < len(b); i += w {
			for j := 0; j < w; j++ {
				ob[i+j] = b[i+w-1-j]
			}
		}
	}
	return out
}

func align64(n int64) int64 { return (n + secAlign - 1) &^ (secAlign - 1) }

// secData returns section id's payload as little-endian bytes. Sections
// whose elements are 1 byte wide alias the Tree's slices; wider sections
// alias on little-endian hosts and are swap-copied on big-endian ones.
func (t *Tree) secData(id uint32) []byte {
	q := &t.quant
	switch id {
	case secLeaf:
		return rawBytes(t.leaf)
	case secChildStart:
		return leBytes(t.childStart)
	case secItemStart:
		return leBytes(t.itemStart)
	case secChild:
		return leBytes(t.child)
	case secCCenters:
		return leBytes(t.cCenters)
	case secCRadii:
		return leBytes(t.cRadii)
	case secCLo:
		return leBytes(t.cLo)
	case secCHi:
		return leBytes(t.cHi)
	case secItemIDs:
		ids := make([]int64, len(t.items))
		for i := range t.items {
			ids[i] = int64(t.items[i].ID)
		}
		return leBytes(ids)
	case secICenters:
		return leBytes(t.iCenters)
	case secIRadii:
		return leBytes(t.iRadii)
	case secRootCenter:
		return leBytes(t.rootCenter)
	case secRootLo:
		return leBytes(t.rootLo)
	case secRootHi:
		return leBytes(t.rootHi)
	case secQICen32:
		return leBytes(q.iCen32)
	case secLeafPivot:
		return leBytes(q.leafPivot)
	case secIPivotHi32:
		return leBytes(q.iPivotHi32)
	case secISR32:
		return leBytes(q.iSR32)
	}
	panic(fmt.Sprintf("packed: unknown section id %d", id))
}

// WriteTo serializes the snapshot in format v2 and reports the bytes
// written. It implements io.WriterTo; durability (atomic replace, fsync)
// is Save's job — WriteTo only streams bytes.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	type sec struct {
		id   uint32
		data []byte
	}
	var secs []sec
	for _, sp := range secSpecs(t.kind, int64(t.dim), int64(len(t.leaf)), int64(len(t.child)), int64(len(t.items)), t.root) {
		data := t.secData(sp.id)
		if int64(len(data)) != sp.n*sp.elem {
			panic(fmt.Sprintf("packed: section %d holds %d bytes, format expects %d", sp.id, len(data), sp.n*sp.elem))
		}
		if sp.n == 0 {
			continue
		}
		secs = append(secs, sec{sp.id, data})
	}

	hdrLen := int64(fixedHdrLen + secEntryLen*len(secs))
	hdr := make([]byte, align64(hdrLen))
	le := binary.LittleEndian
	copy(hdr, magicLE)
	le.PutUint32(hdr[8:], FormatVersion)
	le.PutUint32(hdr[16:], uint32(hdrLen))
	le.PutUint32(hdr[20:], uint32(t.dim))
	le.PutUint32(hdr[24:], uint32(len(t.leaf)))
	le.PutUint32(hdr[28:], uint32(len(t.child)))
	le.PutUint32(hdr[32:], uint32(len(t.items)))
	le.PutUint32(hdr[36:], uint32(t.root))
	hdr[40] = byte(t.kind)
	hdr[41] = byte(t.substrate)
	hdr[42] = tiersF32
	hdr[43] = 0 // flags, reserved
	le.PutUint32(hdr[44:], uint32(len(secs)))
	le.PutUint64(hdr[48:], math.Float64bits(t.rootRadius))
	le.PutUint64(hdr[56:], math.Float64bits(slackRelParam))
	le.PutUint64(hdr[64:], math.Float64bits(pivotRelParam))
	off := align64(hdrLen)
	for i, s := range secs {
		e := hdr[fixedHdrLen+i*secEntryLen:]
		le.PutUint32(e[0:], s.id)
		le.PutUint32(e[4:], crc32.Checksum(s.data, castagnoli))
		le.PutUint64(e[8:], uint64(off))
		le.PutUint64(e[16:], uint64(len(s.data)))
		off = align64(off + int64(len(s.data)))
	}
	// The CRC field is still zero here, which is exactly the byte state
	// the checksum is defined over.
	le.PutUint32(hdr[12:], crc32.Checksum(hdr[:hdrLen], castagnoli))

	var n int64
	emit := func(b []byte) error {
		m, err := w.Write(b)
		n += int64(m)
		return err
	}
	if err := emit(hdr); err != nil {
		return n, err
	}
	var pad [secAlign]byte
	for _, s := range secs {
		if err := emit(s.data); err != nil {
			return n, err
		}
		if rem := int64(len(s.data)) % secAlign; rem != 0 {
			if err := emit(pad[:secAlign-rem]); err != nil {
				return n, err
			}
		}
	}
	if obs.On() {
		obsSnapWritten.Inc()
	}
	return n, nil
}

// Save writes the snapshot to path atomically: the bytes go to a temp
// file in the same directory, the file is fsynced, renamed over path, and
// the directory fsynced — a crash leaves either the old file or the new
// one, never a torn hybrid, and a reader can Open concurrently with a
// writer replacing the file.
func (t *Tree) Save(path string) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if f != nil {
			f.Close()
		}
		if err != nil {
			os.Remove(tmp)
		}
	}()
	if _, err = t.WriteTo(f); err != nil {
		return err
	}
	// CreateTemp opens 0600; a snapshot is a shippable artifact, so widen
	// to the usual rw-r--r-- (cut down by the process umask on rename).
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	err = f.Close()
	f = nil
	if err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
