package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Retention of slow work (DESIGN.md §9). Every unit of work the process
// answers is one root span, recorded by the code that owns it: the server
// middleware for an HTTP request, knn.Search and knn.BruteForce for a bare
// search, domquery for its single check. Under the root sit one ShardSpan
// per traversal and, for a scatter-gather request, the merge span; a
// sampled execution trace (TraceBuf) rides on the child span it belongs to.
// The Requests ring keeps the RequestSlots slowest roots, so a trace lives
// exactly as long as its root stays among them. /debug/requests serves the
// ring as JSON or, with ?format=chrome, through WriteChromeTrace; the -trace
// flag writes the same export to a file.

// BoundValue is a float64 that marshals non-finite values (the +Inf a
// never-tightened distK bound reports) as JSON null instead of failing the
// whole encode.
type BoundValue float64

// MarshalJSON implements json.Marshaler.
func (v BoundValue) MarshalJSON() ([]byte, error) {
	f := float64(v)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, f, 'g', -1, 64), nil
}

// NoBound is the bound a span reports when no distK pushdown took place
// (a bare search); it marshals as null.
var NoBound = BoundValue(math.Inf(1))

// ShardSpan is one traversal under a root: for a scatter-gather request
// one shard's candidate search — latency, engine queue wait, candidates
// streamed and the distK pushdown traffic it saw — and for a bare search
// the search itself, labelled with its substrate and strategy.
// BoundObserved is the shared global bound as of the shard's completion
// (what the traversal could prune with); BoundPublished is the shard's own
// final local distK as pushed into the bound. BoundObserved <
// BoundPublished means another shard's publication tightened this shard's
// pruning — the pushdown was effective here.
type ShardSpan struct {
	Shard          int        `json:"shard"`
	Substrate      string     `json:"substrate,omitempty"`
	Algo           string     `json:"algo,omitempty"`
	Items          int        `json:"items"` // items resident in the shard
	LatencyNs      int64      `json:"latency_ns"`
	QueueWaitNs    int64      `json:"queue_wait_ns"`
	Candidates     int        `json:"candidates"`
	NodesVisited   int        `json:"nodes_visited"`
	ItemsScanned   int        `json:"items_scanned"`
	DomChecks      int        `json:"dom_checks"`
	Pruned         int        `json:"pruned"`
	CoarsePrunes   uint64     `json:"coarse_prunes"`
	BoundObserved  BoundValue `json:"distk_observed"`
	BoundPublished BoundValue `json:"distk_published"`
	// Trace is the traversal's execution trace when it was sampled
	// (SetTraceEvery), nil otherwise. It marshals as its trace_id; the
	// Chrome export carries the spans.
	Trace *QueryTrace `json:"trace_id,omitempty"`
}

// MergeSpan is the gather side of a request: merging the per-shard
// candidate streams and applying the one final global-Sk filter.
type MergeSpan struct {
	LatencyNs  int64 `json:"latency_ns"`
	Candidates int   `json:"candidates"`
	Pruned     int   `json:"pruned"`
	Results    int   `json:"results"`
}

// Request is one root span: what asked (request ID, collection, endpoint),
// what it answered (status, k), when and for how long, and its children.
// Status is 0 for work that did not arrive over HTTP. A recorded Request
// and everything it points to are immutable; Dump hands out copies that
// share the child slices.
type Request struct {
	RequestID  string `json:"request_id"`
	Collection string `json:"collection"`
	Endpoint   string `json:"endpoint"`
	Status     int    `json:"status"`
	K          int    `json:"k"`
	WhenUnixNs int64  `json:"when_unix_ns"`
	// When is WhenUnixNs as RFC3339Nano wall-clock text, rendered by Dump
	// (recorders leave it empty), so an entry lines up with access-log
	// lines and timeline snapshots without epoch arithmetic.
	When      string      `json:"when"`
	LatencyNs int64       `json:"latency_ns"`
	Shards    []ShardSpan `json:"shards"`
	Merge     *MergeSpan  `json:"merge,omitempty"`
}

// RequestSlots is the ring capacity: how many slow roots are retained.
const RequestSlots = 64

// requestSlot is one ring entry. A bare search's single child is stored by
// value in one, so admitting it allocates nothing.
type requestSlot struct {
	Request
	one    ShardSpan
	hasOne bool
}

// RequestRing retains the slowest recent roots. Offers no slower than
// every retained root return after one atomic load of the admission floor;
// admissions, rare once the ring is full, take the mutex. The zero value
// is ready.
type RequestRing struct {
	floor atomic.Int64 // smallest retained latency once full, else 0
	mu    sync.Mutex
	slots [RequestSlots]requestSlot
	used  int
}

// Requests is the process-wide ring every root is offered to;
// /debug/requests serves its dump.
var Requests = &RequestRing{}

// Record offers a root whose children are r.Shards.
func (rr *RequestRing) Record(r Request) { rr.offer(&r, nil) }

// RecordSearch offers a root with the single child span sp.
func (rr *RequestRing) RecordSearch(r Request, sp ShardSpan) { rr.offer(&r, &sp) }

func (rr *RequestRing) offer(r *Request, one *ShardSpan) {
	if r.LatencyNs <= rr.floor.Load() {
		return
	}
	rr.mu.Lock()
	defer rr.mu.Unlock()
	i := rr.used
	if i < RequestSlots {
		rr.used++
	} else {
		i = rr.fastest()
		if r.LatencyNs <= rr.slots[i].LatencyNs {
			return
		}
	}
	s := &rr.slots[i]
	*s = requestSlot{Request: *r}
	if one != nil {
		s.Shards, s.one, s.hasOne = nil, *one, true
	}
	if rr.used == RequestSlots {
		rr.floor.Store(rr.slots[rr.fastest()].LatencyNs)
	}
}

// fastest returns the index of the lowest-latency slot of a full ring.
func (rr *RequestRing) fastest() int {
	mi := 0
	for i := 1; i < RequestSlots; i++ {
		if rr.slots[i].LatencyNs < rr.slots[mi].LatencyNs {
			mi = i
		}
	}
	return mi
}

// Dump returns the retained roots sorted by descending latency, When
// rendered. Never nil: an empty ring dumps as [].
func (rr *RequestRing) Dump() []Request {
	rr.mu.Lock()
	out := make([]Request, rr.used)
	for i := range out {
		s := &rr.slots[i]
		out[i] = s.Request
		if s.hasOne {
			out[i].Shards = []ShardSpan{s.one}
		}
	}
	rr.mu.Unlock()
	for i := range out {
		out[i].When = time.Unix(0, out[i].WhenUnixNs).Format(time.RFC3339Nano)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].LatencyNs != out[b].LatencyNs {
			return out[a].LatencyNs > out[b].LatencyNs
		}
		return out[a].WhenUnixNs > out[b].WhenUnixNs
	})
	return out
}

// Reset empties the ring.
func (rr *RequestRing) Reset() {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	rr.slots = [RequestSlots]requestSlot{}
	rr.used = 0
	rr.floor.Store(0)
}

// WriteChromeTrace writes roots as one Chrome trace_event JSON document
// (chrome://tracing, ui.perfetto.dev). Each root is a process: the root
// span and the merge span on thread 0, each child span on its own thread,
// and a child's execution-trace spans nested on that thread — duration
// events for the search and node visits, instant events for prunes,
// dominance checks and shadow disagreements. Roots are placed by wall
// clock relative to the earliest; children start with their root (all
// shards scatter at once), a trace after its child's queue wait, and the
// merge after the slowest child. An empty set produces a valid document
// with "traceEvents": [].
func WriteChromeTrace(w io.Writer, roots []Request) error {
	var minWhen int64
	for i := range roots {
		if i == 0 || roots[i].WhenUnixNs < minWhen {
			minWhen = roots[i].WhenUnixNs
		}
	}
	events := make([]map[string]any, 0, 8*len(roots))
	meta := func(name string, pid, tid int, label string) {
		events = append(events, map[string]any{"name": name, "ph": "M", "pid": pid, "tid": tid,
			"args": map[string]any{"name": label}})
	}
	span := func(name string, pid, tid int, ts float64, durNs int64, args map[string]any) {
		events = append(events, map[string]any{"name": name, "cat": "request", "ph": "X",
			"pid": pid, "tid": tid, "ts": ts, "dur": float64(durNs) / 1e3, "args": args})
	}
	for ri := range roots {
		r := &roots[ri]
		pid := ri + 1
		base := float64(r.WhenUnixNs-minWhen) / 1e3
		meta("process_name", pid, 0, fmt.Sprintf("%s %s/%s %.3fms",
			r.RequestID, r.Collection, r.Endpoint, float64(r.LatencyNs)/1e6))
		span(r.Endpoint, pid, 0, base, r.LatencyNs, map[string]any{"request_id": r.RequestID,
			"collection": r.Collection, "status": r.Status, "k": r.K, "shards": len(r.Shards)})
		var slowest int64
		for i := range r.Shards {
			sp := &r.Shards[i]
			tid := i + 1
			slowest = max(slowest, sp.LatencyNs)
			name := fmt.Sprintf("shard %d", sp.Shard)
			if sp.Substrate != "" {
				name += " " + sp.Substrate + "/" + sp.Algo
			}
			meta("thread_name", pid, tid, name)
			args := map[string]any{
				"queue_wait_ns": sp.QueueWaitNs, "candidates": sp.Candidates,
				"nodes_visited": sp.NodesVisited, "items_scanned": sp.ItemsScanned,
				"dom_checks": sp.DomChecks, "pruned": sp.Pruned, "coarse_prunes": sp.CoarsePrunes,
				"distk_observed": sp.BoundObserved, "distk_published": sp.BoundPublished,
			}
			if sp.Trace != nil {
				args["trace_id"] = sp.Trace.ID
			}
			span("shard-search", pid, tid, base, sp.LatencyNs, args)
			if sp.Trace != nil {
				events = sp.Trace.appendEvents(events, pid, tid, base+float64(sp.QueueWaitNs)/1e3)
			}
		}
		if m := r.Merge; m != nil {
			span("merge", pid, 0, base+float64(slowest)/1e3, m.LatencyNs, map[string]any{
				"candidates": m.Candidates, "pruned": m.Pruned, "results": m.Results})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
}

// WriteChromeTraceFile writes the ring's Chrome export to path — the
// -trace flag's exit path — and returns how many roots it holds.
func WriteChromeTraceFile(path string) (int, error) {
	roots := Requests.Dump()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := WriteChromeTrace(f, roots); err != nil {
		f.Close()
		return 0, err
	}
	return len(roots), f.Close()
}
