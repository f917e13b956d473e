package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// bare offers a bare-search root of latency lat to rr, its one child span
// carrying counters derived from lat.
func bare(rr *RequestRing, lat int64, qt *QueryTrace) {
	rr.RecordSearch(Request{Endpoint: "knn.Search", K: int(lat), WhenUnixNs: lat, LatencyNs: lat},
		ShardSpan{Substrate: "test-substrate", Algo: "test-algo", LatencyNs: lat,
			NodesVisited: int(lat), ItemsScanned: int(2 * lat), DomChecks: int(3 * lat), Pruned: int(4 * lat),
			Trace: qt})
}

func TestBoundValueMarshal(t *testing.T) {
	b, err := json.Marshal(map[string]BoundValue{
		"inf":  BoundValue(math.Inf(1)),
		"ninf": BoundValue(math.Inf(-1)),
		"nan":  BoundValue(math.NaN()),
		"v":    BoundValue(2.5),
		"none": NoBound,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`"inf":null`, `"ninf":null`, `"nan":null`, `"v":2.5`, `"none":null`} {
		if !strings.Contains(s, want) {
			t.Fatalf("marshal %s missing %s", s, want)
		}
	}
}

// TestFlightAdmitAndReplace fills a fresh ring past capacity and checks the
// replace-minimum policy: the retained set is exactly the RequestSlots
// slowest roots, dumped in descending latency order with their children.
func TestFlightAdmitAndReplace(t *testing.T) {
	var rr RequestRing
	// 2×RequestSlots roots with distinct latencies 1..128, offered in an
	// interleaved order so slow ones arrive both before and after fast ones.
	n := 2 * RequestSlots
	for i := 0; i < n; i++ {
		bare(&rr, int64(((i*37)%n)+1), nil)
	}
	dump := rr.Dump()
	if len(dump) != RequestSlots {
		t.Fatalf("ring holds %d roots, want %d", len(dump), RequestSlots)
	}
	for i, r := range dump {
		want := int64(n - i) // slowest RequestSlots are n, n-1, ..., n-RequestSlots+1
		if r.LatencyNs != want {
			t.Errorf("dump[%d].LatencyNs = %d, want %d", i, r.LatencyNs, want)
		}
		if len(r.Shards) != 1 {
			t.Fatalf("dump[%d] has %d child spans, want 1", i, len(r.Shards))
		}
		sp, lat := r.Shards[0], int(r.LatencyNs)
		if sp.Substrate != "test-substrate" || sp.Algo != "test-algo" {
			t.Errorf("dump[%d] labels = (%q, %q)", i, sp.Substrate, sp.Algo)
		}
		if r.K != lat || sp.NodesVisited != lat || sp.ItemsScanned != 2*lat ||
			sp.DomChecks != 3*lat || sp.Pruned != 4*lat {
			t.Errorf("dump[%d] counters do not match the offer: %+v", i, r)
		}
	}
	// A root no slower than the retained minimum must be rejected and must
	// not disturb the ring.
	rr.Record(Request{RequestID: "fast", LatencyNs: int64(n - RequestSlots)})
	again := rr.Dump()
	if len(again) != RequestSlots || again[RequestSlots-1].LatencyNs != int64(n-RequestSlots+1) {
		t.Error("rejected root disturbed the ring")
	}
}

// TestFlightReset empties the ring and reopens admission.
func TestFlightReset(t *testing.T) {
	var rr RequestRing
	for i := 0; i < RequestSlots; i++ {
		bare(&rr, 100+int64(i), nil)
	}
	rr.Reset()
	if dump := rr.Dump(); len(dump) != 0 {
		t.Fatalf("ring holds %d roots after Reset, want 0", len(dump))
	}
	bare(&rr, 5, nil)
	if dump := rr.Dump(); len(dump) != 1 || dump[0].LatencyNs != 5 {
		t.Error("ring does not admit after Reset")
	}
}

// TestFlightRecordAllocs keeps the record path allocation-free: a rejected
// offer, and an admitted bare-search root stored by value.
func TestFlightRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	var rr RequestRing
	for i := 0; i < RequestSlots; i++ {
		bare(&rr, 1000+int64(i), nil)
	}
	sp := ShardSpan{Substrate: "sstree", Algo: "HS", BoundObserved: NoBound}
	if allocs := testing.AllocsPerRun(100, func() {
		rr.RecordSearch(Request{Endpoint: "knn.Search", LatencyNs: 1}, sp)
	}); allocs != 0 {
		t.Errorf("rejected offer allocates %.1f times per call, want 0", allocs)
	}
	var lat int64 = 10000
	if allocs := testing.AllocsPerRun(100, func() {
		lat++
		sp.LatencyNs = lat
		rr.RecordSearch(Request{Endpoint: "knn.Search", LatencyNs: lat}, sp)
	}); allocs != 0 {
		t.Errorf("admitted bare search allocates %.1f times per call, want 0", allocs)
	}
	if got := rr.Dump()[0].LatencyNs; got != lat {
		t.Errorf("slowest retained = %d, want the last admission %d", got, lat)
	}
}

// TestFlightConcurrent races recorders against dumpers: every dumped root
// is one that was offered and whole (its child span matches it), the ring
// ends full, and under -race the record/dump discipline is clean.
func TestFlightConcurrent(t *testing.T) {
	var rr RequestRing
	const workers, per = 8, 2000
	offered := func(r Request) bool {
		return r.LatencyNs >= 1 && r.LatencyNs <= workers*per &&
			len(r.Shards) == 1 && r.Shards[0].NodesVisited == int(r.LatencyNs)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, r := range rr.Dump() {
				if !offered(r) {
					t.Errorf("dump returned a root that was never offered: %+v", r)
					return
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				bare(&rr, int64(w*per+i+1), nil)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-done
	dump := rr.Dump()
	if len(dump) != RequestSlots {
		t.Fatalf("ring holds %d roots after concurrent filling, want %d", len(dump), RequestSlots)
	}
	for i, r := range dump {
		// The admission floor is exact under the mutex: the ring holds
		// precisely the RequestSlots slowest offers.
		if want := int64(workers*per - i); r.LatencyNs != want || !offered(r) {
			t.Errorf("dump[%d] = %+v, want latency %d", i, r, want)
		}
	}
}

// TestFlightDumpWallClock checks Dump renders when_unix_ns as an RFC3339
// when string, so entries correlate with the timeline and logs.
func TestFlightDumpWallClock(t *testing.T) {
	var rr RequestRing
	when := time.Date(2026, 8, 7, 12, 30, 45, 123456789, time.UTC)
	rr.Record(Request{WhenUnixNs: when.UnixNano(), LatencyNs: 999})
	dump := rr.Dump()
	if len(dump) != 1 {
		t.Fatalf("dump holds %d roots, want 1", len(dump))
	}
	got, err := time.Parse(time.RFC3339Nano, dump[0].When)
	if err != nil {
		t.Fatalf("When %q not RFC3339Nano: %v", dump[0].When, err)
	}
	if got.UnixNano() != when.UnixNano() {
		t.Errorf("When = %v, want %v", got, when)
	}
}

// TestFlightTraceLinkage checks a trace rides on its child span, marshals
// as its trace_id, and is dropped from the ring exactly when its root is
// evicted.
func TestFlightTraceLinkage(t *testing.T) {
	var rr RequestRing
	qt := buildTrace(t)
	bare(&rr, 10, qt)
	rr.Record(Request{LatencyNs: 20, Shards: []ShardSpan{{Shard: 0}, {Shard: 1, Trace: buildTrace(t)}}})

	dump := rr.Dump()
	if len(dump) != 2 || dump[1].Shards[0].Trace != qt {
		t.Fatalf("traced bare root not retained with its trace: %+v", dump)
	}
	if dump[0].Shards[0].Trace != nil || dump[0].Shards[1].Trace == nil {
		t.Error("request root's traces moved between child spans")
	}
	b, err := json.Marshal(dump[1])
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Shards[0].Trace == nil || back.Shards[0].Trace.ID != qt.ID {
		t.Errorf("trace_id did not round-trip: %s", b)
	}

	// Fill the ring with slower roots: the traced one is evicted, and no
	// slot may still reference its trace.
	for i := 0; i < RequestSlots; i++ {
		bare(&rr, 100+int64(i), nil)
	}
	for i := range rr.slots {
		s := &rr.slots[i]
		held := s.one.Trace == qt
		for _, sp := range s.Shards {
			held = held || sp.Trace == qt
		}
		if held {
			t.Fatalf("slot %d still holds the evicted root's trace", i)
		}
	}
}

// TestRequestChromeTraceExport checks the export of a scatter-gather root:
// the root and merge spans on thread 0, one thread per shard, the shard's
// execution trace nested on its thread, and Inf bounds rendered as null.
func TestRequestChromeTraceExport(t *testing.T) {
	qt := buildTrace(t)
	roots := []Request{{
		RequestID:  "abc-1",
		Collection: "default",
		Endpoint:   "knn",
		Status:     200,
		K:          5,
		WhenUnixNs: 1000,
		LatencyNs:  5000,
		Shards: []ShardSpan{
			{Shard: 0, LatencyNs: 2000, QueueWaitNs: 100, Candidates: 7, BoundObserved: BoundValue(math.Inf(1)), BoundPublished: 3.5, Trace: qt},
			{Shard: 1, LatencyNs: 3000, Candidates: 9, BoundObserved: 3.5, BoundPublished: 3.5},
		},
		Merge: &MergeSpan{LatencyNs: 50, Candidates: 16, Pruned: 11, Results: 5},
	}}
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, roots); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("invalid trace_event JSON: %v\n%s", err, sb.String())
	}
	// 1 process meta + root + 2 thread metas + 2 shard spans + merge + the
	// 7 spans of the nested trace.
	if len(doc.TraceEvents) != 14 {
		t.Fatalf("%d events, want 14\n%s", len(doc.TraceEvents), sb.String())
	}
	tids := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Pid != 1 {
			t.Errorf("event %q on pid %d, want 1", e.Name, e.Pid)
		}
		if e.Ph != "M" {
			tids[e.Name] = e.Tid
		}
		if e.Name == "shard-search" {
			if v := e.Args["distk_observed"]; (v == nil) != (e.Tid == 1) {
				t.Errorf("shard span on tid %d: distk_observed = %v, want null only for the Inf bound", e.Tid, v)
			}
			if _, ok := e.Args["trace_id"]; ok != (e.Tid == 1) {
				t.Errorf("shard span on tid %d: trace_id presence wrong: %v", e.Tid, e.Args)
			}
		}
	}
	if tids["knn"] != 0 || tids["merge"] != 0 {
		t.Errorf("root/merge threads = %d/%d, want 0/0", tids["knn"], tids["merge"])
	}
	for _, name := range []string{"search", "node", "leaf", "prune-subtree", "domcheck", "prune-item", "shadow-disagree"} {
		if tid, ok := tids[name]; !ok || tid != 1 {
			t.Errorf("trace event %q on tid %d (present %v), want shard 0's thread 1", name, tid, ok)
		}
	}
}

func TestDebugRequestsEndpoint(t *testing.T) {
	ResetForTest()
	Requests.Record(Request{
		RequestID: "req-9", Collection: "default", Endpoint: "knn",
		Status: 200, K: 3, LatencyNs: 1234,
		Shards: []ShardSpan{{Shard: 0, Candidates: 5, BoundObserved: BoundValue(math.Inf(1))}},
	})
	defer ResetForTest()
	ts := httptest.NewServer(Handler())
	defer ts.Close()

	body := httpGet(t, ts.URL+"/debug/requests")
	var recs []Request
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(recs) != 1 || recs[0].RequestID != "req-9" || len(recs[0].Shards) != 1 {
		t.Fatalf("records %+v", recs)
	}
	if !strings.Contains(body, `"distk_observed": null`) {
		t.Fatalf("Inf bound not serialized as null:\n%s", body)
	}

	chrome := httpGet(t, ts.URL+"/debug/requests?format=chrome")
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(chrome), &doc); err != nil {
		t.Fatalf("invalid chrome JSON: %v\n%s", err, chrome)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export empty")
	}

	// An empty ring serves [] and a chrome document with traceEvents [].
	ResetForTest()
	body = httpGet(t, ts.URL+"/debug/requests")
	if strings.TrimSpace(body) != "[]" {
		t.Fatalf("empty dump = %q, want []", body)
	}
	chrome = httpGet(t, ts.URL+"/debug/requests?format=chrome")
	if !strings.Contains(chrome, `"traceEvents":[]`) {
		t.Fatalf("empty chrome export = %q, want traceEvents []", chrome)
	}
}

func TestLabeledCountersAndGaugesExposition(t *testing.T) {
	ResetForTest()
	SetEnabled(true)
	defer SetEnabled(false)
	defer ResetForTest()

	GetOrNewLabeled("server.requests_total", `code="200",endpoint="knn"`).Add(3)
	GetOrNewLabeled("server.requests_total", `code="404",endpoint="knn"`).Inc()
	SetGauge("build_info", `version="test",go_version="go0",quant_mode="f32"`, 1)
	SetGauge("plain_gauge", "", 2.5)

	var sb strings.Builder
	if err := WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		`hyperdom_server_requests_total{code="200",endpoint="knn"} 3`,
		`hyperdom_server_requests_total{code="404",endpoint="knn"} 1`,
		"# TYPE hyperdom_server_requests_total counter",
		"# TYPE hyperdom_build_info gauge",
		`hyperdom_build_info{version="test",go_version="go0",quant_mode="f32"} 1`,
		"hyperdom_plain_gauge 2.5",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q\n%s", want, body)
		}
	}
	// One # TYPE line per family even with several label sets.
	if got := strings.Count(body, "# TYPE hyperdom_server_requests_total counter"); got != 1 {
		t.Fatalf("requests_total TYPE lines = %d, want 1", got)
	}

	if v, ok := GaugeValue("plain_gauge", ""); !ok || v != 2.5 {
		t.Fatalf("GaugeValue = %v, %v", v, ok)
	}
	if _, ok := GaugeValue("missing", ""); ok {
		t.Fatal("missing gauge reported present")
	}
}

// TestFlightLabelIntern pins the intern table: stable IDs, zero = empty.
func TestFlightLabelIntern(t *testing.T) {
	if id := FlightLabel(""); id != 0 {
		t.Errorf(`FlightLabel("") = %d, want 0`, id)
	}
	a := FlightLabel("test-intern-a")
	if FlightLabel("test-intern-a") != a {
		t.Error("re-interning returned a different ID")
	}
	if got := labelName(a); got != "test-intern-a" {
		t.Errorf("labelName round-trip = %q", got)
	}
	if got := labelName(LabelID(1 << 30)); got != "" {
		t.Errorf("unknown LabelID resolved to %q, want empty", got)
	}
}
