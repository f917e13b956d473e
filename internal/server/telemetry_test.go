package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hyperdom/internal/obs"
	"hyperdom/internal/shard"
)

// syncBuffer is a goroutine-safe log sink for the access-log assertions
// (the httptest server handles requests on its own goroutines).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// loggedServer is testServer plus a captured slog JSON access log.
func loggedServer(t *testing.T, d, n int) (*Server, *httptest.Server, *syncBuffer) {
	t.Helper()
	items := testCorpus(t, d, n)
	x, err := shard.Build(items, d, shard.Options{Shards: 2, WorkersPerShard: 1, Label: "default"})
	if err != nil {
		t.Fatal(err)
	}
	logs := &syncBuffer{}
	s := New(WithLogger(slog.New(slog.NewJSONHandler(logs, nil))))
	if err := s.AddCollection("default", x); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts, logs
}

// lastLogLine decodes the most recent access-log record.
func lastLogLine(t *testing.T, logs *syncBuffer) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(logs.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no access-log lines")
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatalf("bad log line %q: %v", lines[len(lines)-1], err)
	}
	return rec
}

// TestExplainAnswerUnchanged locks the tentpole byte-identity gate: the
// kNN answer fields are byte-identical with and without ?explain=true; the
// explain response only adds the per-shard tree.
func TestExplainAnswerUnchanged(t *testing.T) {
	const d = 3
	_, ts, _ := loggedServer(t, d, 500)
	body := map[string]any{"center": []float64{100, 100, 100}, "radius": 0.5, "k": 7}

	read := func(url string) map[string]json.RawMessage {
		resp := postJSON(t, url, body)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var m map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	plain := read(ts.URL + "/v1/collections/default/knn")
	explained := read(ts.URL + "/v1/collections/default/knn?explain=true")

	if _, has := plain["explain"]; has {
		t.Fatal("explain-off response carries an explain field")
	}
	ex, has := explained["explain"]
	if !has {
		t.Fatal("explain-on response missing explain field")
	}
	// The answer (k, ids, items) must be byte-identical with explain on.
	// Stats are deliberately excluded: distK pushdown racing makes the
	// per-run traversal work nondeterministic (DESIGN.md §13), so only the
	// result set carries the bit-identity contract.
	for _, field := range []string{"k", "ids", "items"} {
		if !bytes.Equal(plain[field], explained[field]) {
			t.Fatalf("answer field %q differs under explain:\n off: %s\n on:  %s",
				field, plain[field], explained[field])
		}
	}

	var tree struct {
		Shards []obs.ShardSpan `json:"shards"`
		Merge  obs.MergeSpan   `json:"merge"`
	}
	if err := json.Unmarshal(ex, &tree); err != nil {
		t.Fatal(err)
	}
	if len(tree.Shards) != 2 {
		t.Fatalf("%d shard spans, want 2", len(tree.Shards))
	}
	sum := 0
	for i, sp := range tree.Shards {
		if sp.LatencyNs <= 0 || sp.QueueWaitNs <= 0 {
			t.Fatalf("span %d: latency %d, queue wait %d", i, sp.LatencyNs, sp.QueueWaitNs)
		}
		sum += sp.Candidates
	}
	if sum < 7 {
		t.Fatalf("per-shard candidates sum %d < k", sum)
	}
	if tree.Merge.Candidates != sum || tree.Merge.Results <= 0 {
		t.Fatalf("merge span %+v, shard candidate sum %d", tree.Merge, sum)
	}
}

// TestRequestIDHonoredAndGenerated pins the X-Request-ID contract: a sane
// client ID is echoed on the response and in the access log; an absent or
// garbage one is replaced with a generated ID.
func TestRequestIDHonoredAndGenerated(t *testing.T) {
	const d = 2
	_, ts, logs := loggedServer(t, d, 100)
	body, _ := json.Marshal(map[string]any{"center": []float64{100, 100}, "radius": 0.5, "k": 3})

	req, _ := http.NewRequest("POST", ts.URL+"/v1/collections/default/knn", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", "client-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-abc-123" {
		t.Fatalf("echoed ID %q, want client-abc-123", got)
	}
	rec := lastLogLine(t, logs)
	if rec["request_id"] != "client-abc-123" || rec["endpoint"] != "knn" ||
		rec["collection"] != "default" || rec["status"] != float64(200) ||
		rec["shards"] != float64(2) {
		t.Fatalf("access log %+v", rec)
	}
	if _, ok := rec["latency_ns"]; !ok {
		t.Fatalf("access log missing latency_ns: %+v", rec)
	}

	// No client ID → generated, non-empty, echoed.
	resp = postJSON(t, ts.URL+"/v1/collections/default/knn",
		map[string]any{"center": []float64{100, 100}, "radius": 0.5, "k": 3})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	gen := resp.Header.Get("X-Request-ID")
	if gen == "" || gen == "client-abc-123" {
		t.Fatalf("generated ID %q", gen)
	}
	if rec := lastLogLine(t, logs); rec["request_id"] != gen {
		t.Fatalf("log request_id %v, header %q", rec["request_id"], gen)
	}

	// Garbage (control bytes / oversized) client IDs are replaced.
	req, _ = http.NewRequest("POST", ts.URL+"/v1/collections/default/knn", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", strings.Repeat("x", maxRequestIDLen+1))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); len(got) > maxRequestIDLen || got == "" {
		t.Fatalf("oversized client ID echoed back: %q", got)
	}
}

// TestReadyz pins the readiness contract: 503 until SetReady, 200 after,
// while /healthz stays 200 throughout (liveness is not readiness).
func TestReadyz(t *testing.T) {
	const d = 2
	s, ts, _ := loggedServer(t, d, 50)

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz before SetReady: %d", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz before SetReady: %d", got)
	}
	s.SetReady(true)
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz after SetReady: %d", got)
	}
	if !s.Ready() {
		t.Fatal("Ready() false after SetReady(true)")
	}
	s.SetReady(false)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz after SetReady(false): %d", got)
	}
}

// TestServerErrorPaths covers the four required error paths — oversized
// body, malformed JSON, unknown collection, bad k — asserting the status
// code, the error-labeled requests_total increment, and a structured log
// line carrying a request_id.
func TestServerErrorPaths(t *testing.T) {
	obs.ResetForTest()
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	defer obs.ResetForTest()

	const d = 2
	_, ts, logs := loggedServer(t, d, 80)

	cases := []struct {
		name   string
		path   string
		body   []byte
		status int
	}{
		{"oversized body", "/v1/collections/default/knn",
			append([]byte(`{"center":[`), append(bytes.Repeat([]byte("1,"), maxBodyBytes/2), []byte(`1],"k":1}`)...)...),
			http.StatusRequestEntityTooLarge},
		{"malformed json", "/v1/collections/default/knn",
			[]byte(`{"center":[1,2`), http.StatusBadRequest},
		{"unknown collection", "/v1/collections/nope/knn",
			[]byte(`{"center":[1,2],"k":1}`), http.StatusNotFound},
		{"bad k", "/v1/collections/default/knn",
			[]byte(`{"center":[1,2],"k":0}`), http.StatusBadRequest},
	}
	wantCodes := map[string]bool{}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.path, "application/json", bytes.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Fatalf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
		id := resp.Header.Get("X-Request-ID")
		if id == "" {
			t.Fatalf("%s: no X-Request-ID on error response", c.name)
		}
		rec := lastLogLine(t, logs)
		if rec["request_id"] != id || rec["status"] != float64(c.status) {
			t.Fatalf("%s: log line %+v, want request_id %q status %d", c.name, rec, id, c.status)
		}
		if rec["level"] != "WARN" {
			t.Fatalf("%s: log level %v, want WARN", c.name, rec["level"])
		}
		wantCodes[`code="`+strconv.Itoa(c.status)+`",endpoint="knn"`] = true
	}

	// Every error code must have incremented its labeled counter.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	body := string(raw)
	for labels := range wantCodes {
		if !strings.Contains(body, "hyperdom_server_requests_total{"+labels+"}") {
			t.Fatalf("metrics missing requests_total{%s}\n%s", labels, body)
		}
	}
	if !strings.Contains(body, "hyperdom_server_bad_requests 4") {
		t.Fatalf("bad_requests counter not at 4\n%s", body)
	}
}

// TestDebugRequestsServed pins the request ring end to end: a served kNN
// query appears at /debug/requests with its shard tree, linked by the
// request ID the response carried, and with every search sampled the
// Chrome export nests each shard's execution trace on that shard's thread.
func TestDebugRequestsServed(t *testing.T) {
	obs.ResetForTest()
	obs.SetEnabled(true)
	obs.SetTraceEvery(1)
	defer func() {
		obs.SetTraceEvery(0)
		obs.SetEnabled(false)
		obs.ResetForTest()
	}()
	const d = 2
	_, ts, _ := loggedServer(t, d, 200)

	resp := postJSON(t, ts.URL+"/v1/collections/default/knn",
		map[string]any{"center": []float64{100, 100}, "radius": 0.5, "k": 4})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")

	dresp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var recs []obs.Request
	if err := json.NewDecoder(dresp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	found := false
	for _, r := range recs {
		if r.RequestID == id {
			found = true
			if r.Collection != "default" || r.Endpoint != "knn" || r.Status != 200 ||
				r.K != 4 || len(r.Shards) != 2 || r.LatencyNs <= 0 || r.Merge == nil {
				t.Fatalf("request root %+v", r)
			}
			for _, sp := range r.Shards {
				if sp.Trace == nil || sp.Trace.ID == 0 {
					t.Errorf("shard %d span lacks its trace_id", sp.Shard)
				}
			}
		}
	}
	if !found {
		t.Fatalf("request %q not in /debug/requests (%d records)", id, len(recs))
	}

	cresp, err := http.Get(ts.URL + "/debug/requests?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(cresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	pid := -1
	for _, e := range doc.TraceEvents {
		if e.Name == "knn" && e.Args["request_id"] == id {
			pid = e.Pid
		}
	}
	searchTids := map[int]bool{}
	for _, e := range doc.TraceEvents {
		if e.Pid == pid && e.Name == "search" {
			searchTids[e.Tid] = true
		}
	}
	if !searchTids[1] || !searchTids[2] || len(searchTids) != 2 {
		t.Fatalf("request %q (pid %d): search spans on threads %v, want shard threads 1 and 2", id, pid, searchTids)
	}
}
