package obs

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Per-query execution tracing (ISSUE 4). A traced search records a full
// span tree — one span per index-node visit plus instant events for every
// prune decision, dominance check and shadow-evaluation disagreement — into
// a TraceBuf owned by the search's scratch arena. Tracing is tail-sampled
// twice over: the record path only runs for 1-in-N searches (SetTraceEvery),
// and a finished trace rides on its traversal's span, so it survives only
// while that span's root stays among the RequestSlots slowest in the
// Requests ring and steady state retains the traces that explain the
// latency tail. With sampling disabled the only cost left in the hot path
// is a nil check per instrumentation site and one atomic load per search —
// no clock reads, no allocation (gated by the knn package's
// TestTraceDisabledAllocs). Traces export nested under their spans through
// WriteChromeTrace.

// LabelID is an interned label (a criterion name) for the trace record
// path, which cannot afford a string table lookup per event. Intern once at
// package init with FlightLabel.
type LabelID uint32

// labels is the process-wide label intern table. ID 0 is reserved for the
// empty string so zero-valued spans read back cleanly.
var labels = struct {
	mu    sync.RWMutex
	names []string
	ids   map[string]LabelID
}{names: []string{""}, ids: map[string]LabelID{"": 0}}

// FlightLabel interns name and returns its ID. Call once per distinct
// label at init time and cache the result; the record path only stores the
// uint32.
func FlightLabel(name string) LabelID {
	labels.mu.RLock()
	id, ok := labels.ids[name]
	labels.mu.RUnlock()
	if ok {
		return id
	}
	labels.mu.Lock()
	defer labels.mu.Unlock()
	if id, ok := labels.ids[name]; ok {
		return id
	}
	id = LabelID(len(labels.names))
	labels.names = append(labels.names, name)
	labels.ids[name] = id
	return id
}

// labelName resolves an interned ID; unknown IDs resolve to "".
func labelName(id LabelID) string {
	labels.mu.RLock()
	defer labels.mu.RUnlock()
	if int(id) < len(labels.names) {
		return labels.names[id]
	}
	return ""
}

// SpanKind classifies one span (or instant event) of a query trace.
type SpanKind uint8

const (
	// SpanSearch is the root span covering the whole query.
	SpanSearch SpanKind = iota
	// SpanNode covers one index-node visit: MinDist on entry, child and
	// item counts on exit. Node spans nest by traversal structure.
	SpanNode
	// SpanNodePrune is an instant event: a subtree discarded because its
	// MinDist exceeded distk (the Lemma 9 / Case 3 bound at node level).
	SpanNodePrune
	// SpanDomCheck is an instant event: one dominance-criterion invocation,
	// with the criterion label, phase, verdict and quartic-solve count.
	SpanDomCheck
	// SpanItemPrune is an instant event: one data item discarded, phase
	// saying which of the Section 6 cases fired. Item-prune events
	// correspond one-to-one with the knn.pruned counter.
	SpanItemPrune
	// SpanShadow is an instant event: a shadow-evaluated criterion
	// disagreed with Hyperbola on this check (the paper's Table 1
	// correct/sound distinction caught in the act).
	SpanShadow
)

// Phases of the Section 6 candidate filter, recorded on SpanDomCheck and
// SpanItemPrune events.
const (
	// PhaseCase2 is the encounter-time check against the interim Sk.
	PhaseCase2 uint8 = iota + 1
	// PhaseCase3 is the MinDist > distk discard (Lemma 9).
	PhaseCase3
	// PhaseEvict is the post-insertion sweep after a Case 1 insert.
	PhaseEvict
	// PhaseFinal is the Definition 2 re-filter against the final Sk.
	PhaseFinal
)

// PhaseName returns the exposition name of a filter phase.
func PhaseName(p uint8) string {
	switch p {
	case PhaseCase2:
		return "case2"
	case PhaseCase3:
		return "case3"
	case PhaseEvict:
		return "evict"
	case PhaseFinal:
		return "final"
	}
	return ""
}

// Span is one node of a query's trace tree. All fields are plain scalars
// (labels pre-interned) so recording never allocates beyond the buffer's
// amortized growth, and a pooled TraceBuf retains no references into the
// index. Instant events have StartNs == EndNs.
type Span struct {
	Parent   int32 // index of the parent span; -1 for the root
	Kind     SpanKind
	Phase    uint8   // PhaseCase2..PhaseFinal on DomCheck/ItemPrune events
	Verdict  bool    // DomCheck: the criterion's verdict; Shadow: the disagreeing criterion's verdict
	Label    LabelID // criterion (DomCheck/Shadow); unused otherwise
	NodeID   uint64  // opaque node identity (Node/NodePrune)
	ItemID   int64   // data item ID (DomCheck/ItemPrune); -1 when absent
	StartNs  int64   // nanoseconds since the root span started
	EndNs    int64
	MinDist  float64 // MinDist to the query (Node/NodePrune)
	Children int32   // children expanded (internal Node spans)
	Items    int32   // items scanned (leaf Node spans)
	Arg      uint64  // kind-specific: quartic solves (DomCheck), Hyperbola verdict (Shadow)
}

// TraceBuf accumulates one query's spans. It is owned by exactly one
// goroutine (the kNN scratch arena keeps one per search); the buffer is
// reused across traced queries, so steady-state recording costs only the
// clock reads. The zero value is ready: Begin activates it.
type TraceBuf struct {
	spans  []Span
	start  time.Time
	cur    int32 // current open span — the parent instant events attach to
	active bool
}

// Active reports whether a trace is being recorded.
func (b *TraceBuf) Active() bool { return b.active }

// Begin resets the buffer and opens the root SpanSearch span with the given
// start time (shared with the search's latency measurement, so the root
// span ends exactly at the recorded latency).
func (b *TraceBuf) Begin(start time.Time) {
	b.spans = b.spans[:0]
	b.start = start
	b.cur = 0
	b.active = true
	b.spans = append(b.spans, Span{Parent: -1, Kind: SpanSearch, ItemID: -1})
}

func (b *TraceBuf) now() int64 { return time.Since(b.start).Nanoseconds() }

// StartNode opens a node-visit span under the current span and makes it
// current. Pair with EndNode.
func (b *TraceBuf) StartNode(nodeID uint64, minDist float64) int32 {
	i := int32(len(b.spans))
	b.spans = append(b.spans, Span{
		Parent: b.cur, Kind: SpanNode, ItemID: -1,
		NodeID: nodeID, MinDist: minDist, StartNs: b.now(),
	})
	b.cur = i
	return i
}

// EndNode closes a node-visit span with its fan-out accounting and restores
// the parent as current.
func (b *TraceBuf) EndNode(i, children, items int32) {
	sp := &b.spans[i]
	sp.EndNs = b.now()
	sp.Children = children
	sp.Items = items
	b.cur = sp.Parent
}

// NodePrune records a subtree discarded by the distk bound.
func (b *TraceBuf) NodePrune(nodeID uint64, minDist float64) {
	t := b.now()
	b.spans = append(b.spans, Span{
		Parent: b.cur, Kind: SpanNodePrune, ItemID: -1,
		NodeID: nodeID, MinDist: minDist, StartNs: t, EndNs: t,
	})
}

// DomCheck records one dominance-criterion invocation: which phase asked,
// which criterion answered, its verdict, and how many quartic solves the
// check cost.
func (b *TraceBuf) DomCheck(phase uint8, crit LabelID, itemID int64, verdict bool, quartics uint64) {
	t := b.now()
	b.spans = append(b.spans, Span{
		Parent: b.cur, Kind: SpanDomCheck, Phase: phase, Label: crit,
		ItemID: itemID, Verdict: verdict, Arg: quartics, StartNs: t, EndNs: t,
	})
}

// ItemPrune records one data item discarded by the given phase. These
// events correspond one-to-one with the knn.pruned counter.
func (b *TraceBuf) ItemPrune(phase uint8, itemID int64, minDist float64) {
	t := b.now()
	b.spans = append(b.spans, Span{
		Parent: b.cur, Kind: SpanItemPrune, Phase: phase,
		ItemID: itemID, MinDist: minDist, StartNs: t, EndNs: t,
	})
}

// Shadow records a shadow-evaluation disagreement: crit answered verdict
// while Hyperbola answered hyperbola.
func (b *TraceBuf) Shadow(crit LabelID, verdict, hyperbola bool) {
	t := b.now()
	var arg uint64
	if hyperbola {
		arg = 1
	}
	b.spans = append(b.spans, Span{
		Parent: b.cur, Kind: SpanShadow, Label: crit, ItemID: -1,
		Verdict: verdict, Arg: arg, StartNs: t, EndNs: t,
	})
}

// Cancel abandons an in-flight trace (a search that turned out to have
// nothing to traverse), keeping the buffer for reuse.
func (b *TraceBuf) Cancel() {
	b.active = false
	b.spans = b.spans[:0]
}

// traceIDs hands out process-unique trace IDs.
var traceIDs atomic.Uint64

// Finish closes the root span at latencyNs and freezes the buffer into an
// immutable QueryTrace, ready to ride on its traversal's span. The buffer
// is reset for reuse; only this copy allocates, and only for sampled
// queries.
func (b *TraceBuf) Finish(latencyNs int64) *QueryTrace {
	b.spans[0].EndNs = latencyNs
	qt := &QueryTrace{ID: traceIDs.Add(1), Spans: append([]Span(nil), b.spans...)}
	b.active = false
	b.spans = b.spans[:0]
	return qt
}

// QueryTrace is one finished, immutable query trace; nothing mutates it
// after Finish. It marshals as its ID (the trace_id of its span).
type QueryTrace struct {
	ID    uint64
	Spans []Span
}

// MarshalJSON implements json.Marshaler.
func (t *QueryTrace) MarshalJSON() ([]byte, error) { return strconv.AppendUint(nil, t.ID, 10), nil }

// UnmarshalJSON implements json.Unmarshaler: a decoded trace keeps only
// its ID.
func (t *QueryTrace) UnmarshalJSON(b []byte) error {
	id, err := strconv.ParseUint(string(b), 10, 64)
	t.ID = id
	return err
}

// CountKind returns how many spans of the given kind the trace holds.
func (t *QueryTrace) CountKind(k SpanKind) int {
	n := 0
	for i := range t.Spans {
		if t.Spans[i].Kind == k {
			n++
		}
	}
	return n
}

// Sampling gate. traceEvery == 0 disables tracing entirely; N > 0 samples
// every Nth search process-wide. The decision costs one atomic load when
// disabled and one atomic add when enabled.
var (
	traceEvery atomic.Int64
	traceSeq   atomic.Uint64
)

// SetTraceEvery sets the sampling period: every Nth search records a full
// trace. 0 (the default) disables tracing; 1 traces every search.
func SetTraceEvery(n int) {
	if n < 0 {
		n = 0
	}
	traceEvery.Store(int64(n))
}

// TraceEveryN returns the current sampling period (0 = disabled).
func TraceEveryN() int { return int(traceEvery.Load()) }

// TraceEnabled reports whether tracing is on at all.
func TraceEnabled() bool { return traceEvery.Load() > 0 }

// SampleTrace decides whether the calling search should record a trace:
// false immediately when tracing is disabled, else true for every Nth call
// process-wide.
func SampleTrace() bool {
	n := traceEvery.Load()
	if n <= 0 {
		return false
	}
	return traceSeq.Add(1)%uint64(n) == 0
}

// spanName returns the Chrome event name for a span.
func spanName(sp *Span) string {
	switch sp.Kind {
	case SpanSearch:
		return "search"
	case SpanNode:
		if sp.Children == 0 && sp.Items > 0 {
			return "leaf"
		}
		return "node"
	case SpanNodePrune:
		return "prune-subtree"
	case SpanDomCheck:
		return "domcheck"
	case SpanItemPrune:
		return "prune-item"
	case SpanShadow:
		return "shadow-disagree"
	}
	return fmt.Sprintf("span(%d)", int(sp.Kind))
}

// spanArgs builds the Chrome args object for a span.
func spanArgs(t *QueryTrace, sp *Span) map[string]any {
	args := map[string]any{}
	switch sp.Kind {
	case SpanSearch:
		args["nodes_visited"] = t.CountKind(SpanNode)
		args["pruned"] = t.CountKind(SpanItemPrune)
		args["dom_checks"] = t.CountKind(SpanDomCheck)
		args["subtree_prunes"] = t.CountKind(SpanNodePrune)
	case SpanNode, SpanNodePrune:
		args["node"] = fmt.Sprintf("0x%x", sp.NodeID)
		args["mindist"] = sp.MinDist
		if sp.Kind == SpanNode {
			args["children"] = sp.Children
			args["items"] = sp.Items
		}
	case SpanDomCheck:
		args["criterion"] = labelName(sp.Label)
		args["phase"] = PhaseName(sp.Phase)
		args["item"] = sp.ItemID
		args["dominated"] = sp.Verdict
		args["quartic_solves"] = sp.Arg
	case SpanItemPrune:
		args["phase"] = PhaseName(sp.Phase)
		args["item"] = sp.ItemID
		args["mindist"] = sp.MinDist
	case SpanShadow:
		args["criterion"] = labelName(sp.Label)
		args["verdict"] = sp.Verdict
		args["hyperbola"] = sp.Arg == 1
	}
	return args
}

// appendEvents appends the trace's spans as Chrome events on thread tid of
// process pid, offset by base microseconds: duration events for the search
// and node visits, instant events for everything else.
func (t *QueryTrace) appendEvents(events []map[string]any, pid, tid int, base float64) []map[string]any {
	for i := range t.Spans {
		sp := &t.Spans[i]
		ev := map[string]any{
			"name": spanName(sp), "cat": "hyperdom", "pid": pid, "tid": tid,
			"ts": base + float64(sp.StartNs)/1e3, "args": spanArgs(t, sp),
		}
		if sp.Kind == SpanSearch || sp.Kind == SpanNode {
			ev["ph"] = "X"
			ev["dur"] = float64(sp.EndNs-sp.StartNs) / 1e3
		} else {
			ev["ph"] = "i"
			ev["s"] = "t"
		}
		events = append(events, ev)
	}
	return events
}
