package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed interval of the traced run. Spans of one call share a
// request id; parent 0 marks the call's root span.
type span struct {
	id, parent int
	req        int
	name       string
	lane       int // Chrome thread lane: 0 the caller, 1+i shard i
	start, end time.Duration
}

// tracer keeps the traced run's spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
	reqs  int
}

// add records the root span of a new request, on the caller's lane, and
// returns its span id.
func (tr *tracer) add(name string, start, end time.Time) int {
	tr.reqs++
	return tr.record(name, 0, tr.reqs, 0, start, end)
}

// addChild records a span under parent, in parent's request.
func (tr *tracer) addChild(name string, parent, lane int, start, end time.Time) int {
	return tr.record(name, parent, tr.spans[parent-1].req, lane, start, end)
}

func (tr *tracer) record(name string, parent, req, lane int, start, end time.Time) int {
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{id: id, parent: parent, req: req, name: name, lane: lane,
		start: start.Sub(tr.epoch), end: end.Sub(tr.epoch)})
	return id
}

// selfTimes returns, per span name, each span's self time in µs: its
// duration minus the part of it that its children's intervals cover.
func (tr *tracer) selfTimes() map[string][]float64 {
	kids := make(map[int][]int)
	for i, s := range tr.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make(map[string][]float64)
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, s := range tr.spans {
		ivs = ivs[:0]
		for _, k := range kids[s.id] {
			c := tr.spans[k]
			lo, hi := max(c.start, s.start), min(c.end, s.end)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach time.Duration
		for _, v := range ivs {
			if v.lo > reach {
				reach = v.lo
			}
			if v.hi > reach {
				covered += v.hi - reach
				reach = v.hi
			}
		}
		out[s.name] = append(out[s.name], us(s.end-s.start-covered))
	}
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON ("X" complete
// events, one thread lane per shard), which chrome://tracing and Perfetto
// open.
func (tr *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "perfbench traced run"}}}
	lanes := map[int]bool{}
	for _, s := range tr.spans {
		lanes[s.lane] = true
		events = append(events, event{
			Name: s.name, Cat: layerOf(s.name), Ph: "X", Pid: 1, Tid: s.lane,
			Ts: us(s.start), Dur: us(s.end - s.start),
			Args: map[string]any{"request_id": s.req, "span_id": s.id, "parent": s.parent},
		})
	}
	for lane := range lanes {
		name := "caller"
		if lane > 0 {
			name = fmt.Sprintf("shard %d", lane-1)
		}
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: lane, Args: map[string]any{"name": name}})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf is a span name's layer: the part before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
