package shard

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hyperdom/internal/knn"
	"hyperdom/internal/packed"
)

// TestSaveDirOpenDirBitIdentity is the persistence half of the
// scatter-gather acceptance gate: an index reloaded from disk — shard
// snapshots mmapped straight into serving — answers every query with the
// same result set and the same aggregate Stats as the index that was
// saved, across substrates, traversals and quantization modes.
func TestSaveDirOpenDirBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	const d, n = 3, 800
	defer knn.SetQuantMode(knn.SetQuantMode(knn.QuantNone)) // restore on exit
	for _, substrate := range []string{"sstree", "mtree", "rtree"} {
		t.Run(substrate, func(t *testing.T) {
			items := randItems(rng, d, n, 3)
			built, err := Build(items, d, Options{
				Shards:          3,
				WorkersPerShard: 2,
				Substrate:       substrate,
				MaxFill:         16,
				Algorithm:       knn.HS,
				DisablePushdown: true, // deterministic Stats on both sides
			})
			if err != nil {
				t.Fatal(err)
			}
			defer built.Close()
			dir := t.TempDir()
			if err := built.SaveDir(dir); err != nil {
				t.Fatalf("SaveDir: %v", err)
			}
			for _, mode := range []struct {
				name string
				o    OpenOptions
			}{
				{"mmap", OpenOptions{WorkersPerShard: 2, Algorithm: knn.HS, DisablePushdown: true}},
				{"verify", OpenOptions{WorkersPerShard: 2, Algorithm: knn.HS, DisablePushdown: true, Verify: true}},
				{"copy", OpenOptions{WorkersPerShard: 2, Algorithm: knn.HS, DisablePushdown: true, NoMmap: true}},
			} {
				loaded, err := OpenDir(dir, mode.o)
				if err != nil {
					t.Fatalf("OpenDir(%s): %v", mode.name, err)
				}
				if loaded.Len() != built.Len() || loaded.Dim() != d || loaded.Shards() != built.Shards() {
					t.Fatalf("%s: loaded n=%d dim=%d shards=%d, want n=%d dim=%d shards=%d",
						mode.name, loaded.Len(), loaded.Dim(), loaded.Shards(),
						built.Len(), d, built.Shards())
				}
				if !reflect.DeepEqual(loaded.ShardSizes(), built.ShardSizes()) {
					t.Fatalf("%s: shard sizes %v, want %v", mode.name, loaded.ShardSizes(), built.ShardSizes())
				}
				if !reflect.DeepEqual(loaded.Plan(), built.Plan()) {
					t.Fatalf("%s: plan did not round-trip", mode.name)
				}
				for _, quant := range []knn.QuantMode{knn.QuantNone, knn.QuantF32} {
					knn.SetQuantMode(quant)
					for q := 0; q < 12; q++ {
						sq := randQuery(rng, d, 3)
						k := 1 + rng.Intn(12)
						want := built.Search(sq, k)
						got := loaded.Search(sq, k)
						ctx := substrate + "/" + mode.name + "/" + quant.String()
						sameItems(t, ctx, got.Items, want.Items)
						if got.Stats != want.Stats {
							t.Fatalf("%s: stats %+v, want %+v", ctx, got.Stats, want.Stats)
						}
					}
				}
				knn.SetQuantMode(knn.QuantNone)
				loaded.Close()
				loaded.Close() // double Close is safe
			}
		})
	}
}

// TestSaveDirEmptyShards: with fewer items than shards some shards are
// empty; the directory still has one snapshot per shard and reloads into
// an equivalent index.
func TestSaveDirEmptyShards(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	for _, n := range []int{0, 1, 3} {
		items := randItems(rng, 2, n, 2)
		built, err := Build(items, 2, Options{Shards: 4, Algorithm: knn.HS})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := built.SaveDir(dir); err != nil {
			t.Fatalf("n=%d: SaveDir: %v", n, err)
		}
		for i := 0; i < 4; i++ {
			if _, err := os.Stat(filepath.Join(dir, shardFileName(i))); err != nil {
				t.Fatalf("n=%d: missing %s: %v", n, shardFileName(i), err)
			}
		}
		loaded, err := OpenDir(dir, OpenOptions{Algorithm: knn.HS})
		if err != nil {
			t.Fatalf("n=%d: OpenDir: %v", n, err)
		}
		if loaded.Len() != n {
			t.Fatalf("n=%d: loaded %d items", n, loaded.Len())
		}
		for q := 0; q < 3; q++ {
			sq := randQuery(rng, 2, 2)
			want := built.Search(sq, 5)
			got := loaded.Search(sq, 5)
			sameItems(t, "empty-shards", got.Items, want.Items)
		}
		loaded.Close()
		built.Close()
	}
}

// TestSaveDirManifest pins the manifest schema: format, substrate, dim,
// per-shard files and a plan whose leaves cover every shard exactly once.
func TestSaveDirManifest(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	items := randItems(rng, 4, 500, 2)
	built, err := Build(items, 4, Options{Shards: 5, Substrate: "rtree", MaxFill: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest does not parse: %v", err)
	}
	if m.Format != manifestFormat || m.Substrate != "rtree" || m.Dim != 4 || m.Items != 500 {
		t.Fatalf("manifest header %+v", m)
	}
	if len(m.Shards) != 5 {
		t.Fatalf("%d shard entries", len(m.Shards))
	}
	total := 0
	for i, s := range m.Shards {
		if s.File != shardFileName(i) {
			t.Fatalf("shard %d file %q", i, s.File)
		}
		total += s.Items
	}
	if total != 500 {
		t.Fatalf("shard items sum to %d", total)
	}
	if m.Plan == nil {
		t.Fatal("no plan in manifest")
	}
	seen := map[int]bool{}
	var walk func(p *PlanNode)
	walk = func(p *PlanNode) {
		if p.Left == nil && p.Right == nil {
			if seen[p.Shard] {
				t.Fatalf("plan leaf shard %d twice", p.Shard)
			}
			seen[p.Shard] = true
			return
		}
		if p.Left == nil || p.Right == nil {
			t.Fatal("half-internal plan node")
		}
		if p.Dim < 0 || p.Dim >= 4 {
			t.Fatalf("plan cut dim %d", p.Dim)
		}
		walk(p.Left)
		walk(p.Right)
	}
	walk(m.Plan)
	if len(seen) != 5 {
		t.Fatalf("plan covers %d shards", len(seen))
	}
}

// TestOpenDirRejects covers the validation surface: missing or corrupt
// manifests, mismatched metadata, escaping file names, and a corrupted
// shard file under Verify.
func TestOpenDirRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	items := randItems(rng, 3, 200, 2)
	built, err := Build(items, 3, Options{Shards: 2, MaxFill: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	save := func(t *testing.T) string {
		dir := t.TempDir()
		if err := built.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	edit := func(t *testing.T, dir string, f func(m *manifest)) {
		data, err := os.ReadFile(filepath.Join(dir, ManifestName))
		if err != nil {
			t.Fatal(err)
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		f(&m)
		out, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestName), out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
		want    string
	}{
		{"missing manifest", func(t *testing.T, dir string) {
			os.Remove(filepath.Join(dir, ManifestName))
		}, "no such file"},
		{"garbage manifest", func(t *testing.T, dir string) {
			os.WriteFile(filepath.Join(dir, ManifestName), []byte("{nope"), 0o644)
		}, "bad manifest"},
		{"future format", func(t *testing.T, dir string) {
			edit(t, dir, func(m *manifest) { m.Format = 99 })
		}, "manifest format 99"},
		{"bad substrate", func(t *testing.T, dir string) {
			edit(t, dir, func(m *manifest) { m.Substrate = "btree" })
		}, "unknown substrate"},
		{"escaping file name", func(t *testing.T, dir string) {
			edit(t, dir, func(m *manifest) { m.Shards[0].File = "../evil.hds" })
		}, "non-local file"},
		{"missing shard file", func(t *testing.T, dir string) {
			os.Remove(filepath.Join(dir, shardFileName(1)))
		}, "shard 1"},
		{"item count lie", func(t *testing.T, dir string) {
			edit(t, dir, func(m *manifest) { m.Shards[0].Items++ })
		}, "manifest says"},
		{"total lie", func(t *testing.T, dir string) {
			edit(t, dir, func(m *manifest) {
				m.Items++
				m.Shards[0].Items = 0 // keep per-shard check from firing first
				m.Shards[0].File = shardFileName(0)
			})
		}, "manifest says"},
		{"truncated shard file", func(t *testing.T, dir string) {
			p := filepath.Join(dir, shardFileName(0))
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			os.WriteFile(p, data[:len(data)/2], 0o644)
		}, "shard 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := save(t)
			tc.corrupt(t, dir)
			_, err := OpenDir(dir, OpenOptions{})
			if err == nil {
				t.Fatal("OpenDir accepted a corrupt directory")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// A flipped payload byte gets through the structural checks only to be
	// caught by the full checksum pass under Verify. Flip mid-file: the
	// tail of the file can be unchecksummed alignment padding.
	t.Run("bit flip under Verify", func(t *testing.T) {
		dir := save(t)
		p := filepath.Join(dir, shardFileName(0))
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x01
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDir(dir, OpenOptions{Verify: true}); err == nil {
			t.Fatal("Verify missed a flipped payload byte")
		} else if !strings.Contains(err.Error(), packed.ErrChecksum.Error()) {
			t.Fatalf("error %q is not a checksum error", err)
		}
	})
}

// TestSaveDirOverwrite: saving twice into the same directory is fine, and
// a reload after the second save serves the second index.
func TestSaveDirOverwrite(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dir := t.TempDir()
	first, err := Build(randItems(rng, 2, 100, 1), 2, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := first.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	first.Close()
	second, err := Build(randItems(rng, 2, 150, 1), 2, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if err := second.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenDir(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Len() != 150 {
		t.Fatalf("reload has %d items, want 150", loaded.Len())
	}
	// No stray temp files survive the atomic writes.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("stray temp file %s", e.Name())
		}
	}
}
