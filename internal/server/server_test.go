package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/obs"
	"hyperdom/internal/shard"
	"hyperdom/internal/sstree"
)

func testCorpus(t *testing.T, d, n int) []geom.Item {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	items := make([]geom.Item, n)
	for i := range items {
		c := make([]float64, d)
		for j := range c {
			c[j] = 100 + rng.NormFloat64()*25
		}
		items[i] = geom.Item{Sphere: geom.NewSphere(c, rng.Float64()*2), ID: i}
	}
	return items
}

func testServer(t *testing.T, items []geom.Item, d int) (*Server, *httptest.Server) {
	t.Helper()
	x, err := shard.Build(items, d, shard.Options{Shards: 2, WorkersPerShard: 1, Algorithm: knn.HS, Label: "default"})
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	if err := s.AddCollection("default", x); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestKNNEndpointMatchesOracle(t *testing.T) {
	const d, n = 3, 400
	items := testCorpus(t, d, n)
	_, ts := testServer(t, items, d)

	tree := sstree.New(d)
	for _, it := range items {
		tree.Insert(it)
	}
	oracle := knn.WrapSSTree(tree)

	rng := rand.New(rand.NewSource(42))
	for q := 0; q < 10; q++ {
		c := make([]float64, d)
		for j := range c {
			c[j] = 100 + rng.NormFloat64()*25
		}
		k := 1 + rng.Intn(10)
		resp := postJSON(t, ts.URL+"/v1/collections/default/knn",
			map[string]any{"center": c, "radius": 0.5, "k": k})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var got knnResponse
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := knn.Search(oracle, geom.NewSphere(c, 0.5), k, dominance.Hyperbola{}, knn.HS)
		if len(got.IDs) != len(want.Items) {
			t.Fatalf("query %d: %d ids, want %d", q, len(got.IDs), len(want.Items))
		}
		for i, it := range want.Items {
			if got.IDs[i] != it.ID {
				t.Fatalf("query %d: ids[%d] = %d, want %d", q, i, got.IDs[i], it.ID)
			}
		}
		if got.K != k || len(got.Items) != len(got.IDs) {
			t.Fatalf("query %d: malformed response %+v", q, got)
		}
	}
}

// TestKNNHugeKServed: a k far beyond the collection size is a valid
// request — the answer is every candidate — so it must come back 200 and
// leave the server serving, not exhaust memory sizing buffers by k.
func TestKNNHugeKServed(t *testing.T) {
	const d, n = 4, 200
	_, ts := testServer(t, testCorpus(t, d, n), d)
	url := ts.URL + "/v1/collections/default/knn"
	huge := map[string]any{"center": []float64{100, 100, 100, 100}, "radius": 1, "k": 100000000000}
	normal := map[string]any{"center": []float64{100, 100, 100, 100}, "radius": 1, "k": n}
	var got, want struct {
		IDs []int `json:"ids"`
	}
	for _, c := range []struct {
		body any
		dst  any
	}{{huge, &got}, {normal, &want}} {
		resp := postJSON(t, url, c.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d for %v", resp.StatusCode, c.body)
		}
		if err := json.NewDecoder(resp.Body).Decode(c.dst); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if len(got.IDs) == 0 || !slices.Equal(got.IDs, want.IDs) {
		t.Fatalf("huge k answered %v, k = n answered %v", got.IDs, want.IDs)
	}
}

func TestDominatesEndpoint(t *testing.T) {
	const d = 2
	_, ts := testServer(t, testCorpus(t, d, 50), d)
	// A tight sphere near the query dominates a far one.
	body := map[string]any{
		"a": map[string]any{"center": []float64{0, 0}, "radius": 0.1},
		"b": map[string]any{"center": []float64{50, 50}, "radius": 0.1},
		"q": map[string]any{"center": []float64{0, 1}, "radius": 0.1},
	}
	resp := postJSON(t, ts.URL+"/v1/collections/default/dominates", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got dominatesResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !got.Dominates || got.Criterion != "Hyperbola" {
		t.Fatalf("got %+v", got)
	}
	// Unknown criterion is a 400.
	body["criterion"] = "Oracle"
	resp = postJSON(t, ts.URL+"/v1/collections/default/dominates", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown criterion: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestValidationAndRouting(t *testing.T) {
	const d = 2
	_, ts := testServer(t, testCorpus(t, d, 50), d)
	cases := []struct {
		path   string
		body   any
		status int
	}{
		{"/v1/collections/nope/knn", map[string]any{"center": []float64{0, 0}, "k": 1}, http.StatusNotFound},
		{"/v1/collections/default/knn", map[string]any{"center": []float64{0, 0}, "k": 0}, http.StatusBadRequest},
		{"/v1/collections/default/knn", map[string]any{"center": []float64{0}, "k": 1}, http.StatusBadRequest},
		{"/v1/collections/default/knn", map[string]any{"center": []float64{0, 0}, "radius": -1, "k": 1}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != c.status {
			t.Fatalf("%s: status %d, want %d", c.path, resp.StatusCode, c.status)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/v1/collections")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("collections: %v %v", err, resp)
	}
	var inv struct {
		Collections []collectionJSON `json:"collections"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&inv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(inv.Collections) != 1 || inv.Collections[0].Name != "default" || inv.Collections[0].Shards != 2 {
		t.Fatalf("inventory %+v", inv)
	}
}

// TestMetricsExposition pins the serving-path metric families the CI
// server-e2e job greps for: hyperdom_shard_* and
// hyperdom_server_request_latency.
func TestMetricsExposition(t *testing.T) {
	obs.ResetForTest()
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	const d = 2
	_, ts := testServer(t, testCorpus(t, d, 120), d)
	resp := postJSON(t, ts.URL+"/v1/collections/default/knn",
		map[string]any{"center": []float64{100, 100}, "radius": 0.5, "k": 3})
	resp.Body.Close()
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	body := buf.String()
	for _, want := range []string{
		"hyperdom_shard_queries",
		"hyperdom_shard_search_latency_seconds",
		`collection="default"`,
		"hyperdom_server_request_latency_seconds",
		`endpoint="knn"`,
		"hyperdom_server_requests",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics exposition missing %q\n%s", want, body)
		}
	}
}

func TestDuplicateCollectionRejected(t *testing.T) {
	const d = 2
	items := testCorpus(t, d, 30)
	x, err := shard.Build(items, d, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	defer s.Close()
	if err := s.AddCollection("c", x); err != nil {
		t.Fatal(err)
	}
	if err := s.AddCollection("c", x); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := s.AddCollection("", x); err == nil {
		t.Fatal("empty name accepted")
	}
	if got := s.Collections(); len(got) != 1 || got[0] != "c" {
		t.Fatalf("collections %v", got)
	}
}
