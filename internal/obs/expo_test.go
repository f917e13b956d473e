package obs

import (
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"knn.search_latency":        "hyperdom_knn_search_latency",
		"dominance.hyperbola.trues": "hyperdom_dominance_hyperbola_trues",
		"weird-name with spaces/9":  "hyperdom_weird_name_with_spaces_9",
		"":                          "hyperdom_",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestMetricsEndpoint drives /metrics through the real handler and checks
// the Prometheus text contract: 200, the versioned content type, a # TYPE
// line per family, cumulative _bucket series ending in +Inf, and _sum/_count
// lines for a histogram we populated.
func TestMetricsEndpoint(t *testing.T) {
	c := New("test.expo.counter")
	c.Add(7)
	h := NewHistogram("test.expo.hist", `kind="a"`)
	h.Record(100)
	h.Record(200)
	h.Record(1 << 20)

	srv := httptest.NewServer(Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		"# TYPE hyperdom_test_expo_counter counter\n",
		"hyperdom_test_expo_counter 7\n",
		"# TYPE hyperdom_test_expo_hist_seconds histogram\n",
		`hyperdom_test_expo_hist_seconds_bucket{kind="a",le="+Inf"} 3`,
		`hyperdom_test_expo_hist_seconds_count{kind="a"} 3`,
		`hyperdom_test_expo_hist_seconds_sum{kind="a"} `,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics output missing %q", want)
		}
	}

	// Cumulative bucket counts must be non-decreasing within the family and
	// the finite bounds must be in seconds (well below 1 for our ns samples).
	var prevCum int64 = -1
	var bucketLines int
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, `hyperdom_test_expo_hist_seconds_bucket{kind="a",le=`) {
			continue
		}
		bucketLines++
		cum, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparsable bucket line %q: %v", line, err)
		}
		if cum < prevCum {
			t.Errorf("bucket series not cumulative at %q", line)
		}
		prevCum = cum
	}
	if bucketLines < 4 { // 3 sample buckets + +Inf
		t.Errorf("expected ≥4 bucket lines for the populated histogram, got %d", bucketLines)
	}

	// One # TYPE line per family, even with multiple labeled instances.
	NewHistogram("test.expo.hist", `kind="b"`).Record(50)
	resp2, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw2, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw2), "# TYPE hyperdom_test_expo_hist_seconds histogram"); n != 1 {
		t.Errorf("family has %d # TYPE lines, want exactly 1", n)
	}
}

// TestDebugEndpoints checks /debug/vars and the pprof index respond, and
// that the endpoints folded into /debug/requests stay gone.
func TestDebugEndpoints(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != 200 {
			t.Errorf("%s status = %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err := srv.Client().Get(srv.URL + "/metrics/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Errorf("unknown path served 200")
	}
	for _, gone := range []string{"slow", "trace"} {
		path := "/debug/" + gone
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Errorf("%s status = %d, want 404", path, resp.StatusCode)
		}
	}
}
