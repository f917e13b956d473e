package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"hyperdom/internal/dataset"
	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/shard"
	"hyperdom/internal/sstree"
)

// query is one distinct kNN request: the sphere, its pre-encoded JSON body
// and the oracle's answer as sorted IDs.
type query struct {
	sphere geom.Sphere
	k      int
	body   []byte
	want   []int
}

// fixture is everything a run derives from (workload, seed) before any
// timing starts: the corpus on disk, the queries and their oracle answers.
type fixture struct {
	w       workload
	items   []geom.Item
	queries []query
	dir     string // the run's working directory inside the checkout
	csvPath string
	snapDir string // snapshot root for hyperdomd -snapshot-dir ("" unless w.snapshot)
	// oracleTree is the pointer SS-tree the oracle searched; the traced run
	// freezes it into the single-index knn layer under test.
	oracleTree *sstree.Tree
}

// genCorpus mirrors hyperdomd's synthetic Gaussian corpus: centers at
// 100±25 per coordinate, radii uniform in [0, 2).
func genCorpus(n, dim int, seed int64) []geom.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]geom.Item, n)
	for i := range items {
		c := make([]float64, dim)
		for j := range c {
			c[j] = 100 + rng.NormFloat64()*25
		}
		items[i] = geom.Item{Sphere: geom.NewSphere(c, rng.Float64()*2), ID: i}
	}
	return items
}

// genQueries samples distinct corpus members as query spheres. The query
// stream uses its own generator so it does not shift with the corpus size.
func genQueries(items []geom.Item, w workload, seed int64) []query {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_0f_9e7))
	perm := rng.Perm(len(items))[:w.queries]
	qs := make([]query, len(perm))
	for i, p := range perm {
		s := items[p].Sphere
		if w.qradius >= 0 {
			s = geom.NewSphere(s.Center, w.qradius)
		}
		qs[i] = query{sphere: s, k: w.k, body: encodeQuery(s, w.k)}
	}
	return qs
}

// encodeQuery writes the kNN request body. 'g'/-1 formatting round-trips
// every float64 exactly, so the server searches the very sphere the
// oracle searched.
func encodeQuery(s geom.Sphere, k int) []byte {
	b := []byte(`{"center":[`)
	for i, c := range s.Center {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, c, 'g', -1, 64)
	}
	b = append(b, `],"radius":`...)
	b = strconv.AppendFloat(b, s.Radius, 'g', -1, 64)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(k), 10)
	return append(b, '}')
}

// newFixture generates the corpus and queries for (w, seed), writes the
// corpus where the server will read it, and computes every query's oracle
// answer with a plain pointer SS-tree knn.Search — the differential oracle
// the repository's tests trust — using up to two goroutines.
func newFixture(w workload, seed int64, dir string) (*fixture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fx := &fixture{w: w, dir: dir}
	fx.items = genCorpus(w.n, w.dim, seed)
	fx.queries = genQueries(fx.items, w, seed)

	fx.csvPath = filepath.Join(dir, "corpus.csv")
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, fx.items); err != nil {
		return nil, err
	}
	if err := os.WriteFile(fx.csvPath, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if w.snapshot {
		fx.snapDir = filepath.Join(dir, "snapshots")
		if err := os.RemoveAll(fx.snapDir); err != nil {
			return nil, err
		}
		if err := saveSnapshot(fx.items, w.dim, filepath.Join(fx.snapDir, "default")); err != nil {
			return nil, err
		}
	}

	t := sstree.New(w.dim)
	for _, it := range fx.items {
		t.Insert(it)
	}
	fx.oracleTree = t
	idx := knn.WrapSSTree(t)
	var wg sync.WaitGroup
	const workers = 2
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(fx.queries); i += workers {
				q := &fx.queries[i]
				res := knn.Search(idx, q.sphere, q.k, dominance.Hyperbola{}, knn.HS)
				q.want = sortedIDs(res.Items)
			}
		}(g)
	}
	wg.Wait()
	return fx, nil
}

// saveSnapshot builds the serving index the way hyperdomd does (2 sstree
// shards) and persists it for the server's -snapshot-dir cold start.
func saveSnapshot(items []geom.Item, dim int, dir string) error {
	x, err := shard.Build(items, dim, servingOptions("snapshot"))
	if err != nil {
		return err
	}
	defer x.Close()
	if err := x.SaveDir(dir); err != nil {
		return fmt.Errorf("save snapshot: %w", err)
	}
	return nil
}

// servingOptions are hyperdomd's serving defaults: sstree, HS, 2 shards,
// pushdown on, auto-sized worker pools.
func servingOptions(label string) shard.Options {
	return shard.Options{Shards: 2, Algorithm: knn.HS, Label: label}
}

func sortedIDs(items []geom.Item) []int {
	ids := make([]int, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	sort.Ints(ids)
	return ids
}

// sameIDs reports whether got, sorted in place, equals want.
func sameIDs(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	sort.Ints(got)
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// parseIDs extracts the "ids" array from a kNN response body into dst
// without decoding the rest of the document.
func parseIDs(body []byte, dst []int) ([]int, bool) {
	i := bytes.Index(body, []byte(`"ids":[`))
	if i < 0 {
		return dst, false
	}
	dst = dst[:0]
	p := i + len(`"ids":[`)
	for p < len(body) && body[p] != ']' {
		v, neg := 0, false
		if body[p] == '-' {
			neg = true
			p++
		}
		start := p
		for p < len(body) && body[p] >= '0' && body[p] <= '9' {
			v = v*10 + int(body[p]-'0')
			p++
		}
		if p == start || p >= len(body) {
			return dst, false
		}
		if neg {
			v = -v
		}
		dst = append(dst, v)
		if body[p] == ',' {
			p++
		}
	}
	return dst, p < len(body)
}
