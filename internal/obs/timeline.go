package obs

import (
	"sort"
	"sync"
	"time"
)

// The timeline ring (ISSUE 9): a fixed-size in-process ring of periodic
// snapshots, each pairing the windowed histogram quantiles with the
// counter rates of the same span, the runtime sample and the current
// gauges. One background ticker drives the whole time dimension:
//
//	every period: snapshot counters → Rates.Tick
//	              capture every histogram family's windowed quantiles
//	              sample the runtime, publish hyperdom_runtime_* gauges
//	              append a TimelineSnapshot to the ring
//	              RotateWindows()
//
// Rotation happens after the capture, so each snapshot sees the full
// just-finished period, and the first snapshot — one period after start —
// already carries non-null windowed quantiles for every family that
// recorded samples ("within one rotation period", the acceptance bar).
// /debug/timeline serves the ring oldest-first as JSON.

// FamilyWindow is one histogram family's windowed reading inside a
// timeline snapshot: the merged-across-labels sample count and quantiles
// over the window. Quantile fields are nil (JSON null) when the window is
// empty — a scraper can tell "no traffic" from "zero latency".
type FamilyWindow struct {
	Count uint64   `json:"count"`
	P50   *float64 `json:"p50"`
	P90   *float64 `json:"p90"`
	P99   *float64 `json:"p99"`
	P999  *float64 `json:"p999"`
}

// familyWindowOf summarizes a merged windowed snapshot.
func familyWindowOf(s HistSnap) FamilyWindow {
	fw := FamilyWindow{Count: s.Count}
	if s.Count == 0 {
		return fw
	}
	q := func(p float64) *float64 { v := s.Quantile(p); return &v }
	fw.P50, fw.P90, fw.P99, fw.P999 = q(0.50), q(0.90), q(0.99), q(0.999)
	return fw
}

// TimelineSnapshot is one periodic reading of the whole process: windowed
// quantiles per histogram family, windowed per-second counter rates, the
// runtime sample and the gauges, stamped with the wall clock so entries
// correlate with access logs and /debug/requests.
type TimelineSnapshot struct {
	WhenUnixNs int64  `json:"when_unix_ns"`
	When       string `json:"when"` // RFC3339Nano, for humans and log grep
	// WindowNs is the wall span the windowed quantiles and rates cover —
	// grows toward WinSlots×period as the ring warms up.
	WindowNs    int64                   `json:"window_ns"`
	Quantiles   map[string]FamilyWindow `json:"windowed_quantiles"`
	RatesPerSec map[string]float64      `json:"rates_per_sec"`
	Runtime     RuntimeSample           `json:"runtime"`
	Gauges      map[string]float64      `json:"gauges"`
}

// DefaultTimelineSlots sizes the ring when StartTimeline is given n ≤ 0:
// one hour of history at the default 10s period.
const DefaultTimelineSlots = 360

// DefaultTimelinePeriod is the rotation/snapshot cadence when
// StartTimeline is given period ≤ 0. Six window slots at 10s give the
// nominal one-minute windows of the _1m metric families.
const DefaultTimelinePeriod = 10 * time.Second

// timelineState is the running collector: the ring plus the ticker
// goroutine's lifecycle.
type timelineState struct {
	mu    sync.Mutex
	ring  []*TimelineSnapshot
	next  int
	used  int
	stop  chan struct{}
	done  chan struct{}
	tick  time.Duration
	prevT time.Time
}

var timeline timelineState

// StartTimeline starts the periodic collector: every period it captures a
// TimelineSnapshot into a slots-sized ring, ticks the counter rate window
// and rotates every histogram window. period ≤ 0 selects
// DefaultTimelinePeriod, slots ≤ 0 DefaultTimelineSlots. A second call
// replaces the running collector (the ring restarts empty). Stop with
// StopTimeline.
func StartTimeline(period time.Duration, slots int) {
	if period <= 0 {
		period = DefaultTimelinePeriod
	}
	if slots <= 0 {
		slots = DefaultTimelineSlots
	}
	StopTimeline()
	timeline.mu.Lock()
	timeline.ring = make([]*TimelineSnapshot, slots)
	timeline.next, timeline.used = 0, 0
	timeline.tick = period
	timeline.prevT = time.Now()
	stop := make(chan struct{})
	done := make(chan struct{})
	timeline.stop, timeline.done = stop, done
	timeline.mu.Unlock()

	// Arm the rate baseline so the first periodic tick already yields
	// deltas over a known span.
	Rates.Tick(Snapshot(), 0)

	go func() {
		defer close(done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				TimelineTick()
			}
		}
	}()
}

// StopTimeline stops the collector goroutine, keeping the ring readable.
// No-op when the timeline is not running.
func StopTimeline() {
	timeline.mu.Lock()
	stop, done := timeline.stop, timeline.done
	timeline.stop, timeline.done = nil, nil
	timeline.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// TimelineTick performs one collection step by hand: capture, tick rates,
// rotate windows. The running collector calls it on its cadence; tests
// (and callers embedding their own scheduler) may call it directly.
func TimelineTick() {
	now := time.Now()
	timeline.mu.Lock()
	dt := now.Sub(timeline.prevT)
	if timeline.prevT.IsZero() {
		dt = 0
	}
	timeline.prevT = now
	timeline.mu.Unlock()

	Rates.Tick(Snapshot(), dt)
	rs := SampleRuntime()
	PublishRuntimeGauges(rs)

	snap := &TimelineSnapshot{
		WhenUnixNs:  now.UnixNano(),
		When:        now.Format(time.RFC3339Nano),
		WindowNs:    Rates.WindowSpan().Nanoseconds(),
		Quantiles:   make(map[string]FamilyWindow),
		RatesPerSec: Rates.RatesPerSec(),
		Runtime:     rs,
		Gauges:      make(map[string]float64),
	}
	for _, name := range histogramFamilies() {
		snap.Quantiles[name] = familyWindowOf(MergedWindow(name))
	}
	gk, gv := gaugeSnapshot()
	for i, key := range gk {
		snap.Gauges[key] = gv[i]
	}

	timeline.mu.Lock()
	if timeline.ring == nil {
		timeline.ring = make([]*TimelineSnapshot, DefaultTimelineSlots)
	}
	timeline.ring[timeline.next] = snap
	timeline.next = (timeline.next + 1) % len(timeline.ring)
	if timeline.used < len(timeline.ring) {
		timeline.used++
	}
	timeline.mu.Unlock()

	RotateWindows()
}

// TimelineSnapshots returns the retained snapshots, oldest first.
func TimelineSnapshots() []*TimelineSnapshot {
	timeline.mu.Lock()
	defer timeline.mu.Unlock()
	out := make([]*TimelineSnapshot, 0, timeline.used)
	if timeline.used == 0 {
		return out
	}
	n := len(timeline.ring)
	start := (timeline.next - timeline.used + n) % n
	for i := 0; i < timeline.used; i++ {
		out = append(out, timeline.ring[(start+i)%n])
	}
	return out
}

// ResetTimelineForTest empties the ring without touching the collector
// goroutine.
func ResetTimelineForTest() {
	timeline.mu.Lock()
	defer timeline.mu.Unlock()
	for i := range timeline.ring {
		timeline.ring[i] = nil
	}
	timeline.next, timeline.used = 0, 0
	timeline.prevT = time.Time{}
}

// histogramFamilies returns the distinct registered histogram family
// names, sorted.
func histogramFamilies() []string {
	var names []string
	seen := ""
	for _, h := range Histograms() { // sorted by (name, labels)
		if h.Name() != seen {
			seen = h.Name()
			names = append(names, seen)
		}
	}
	sort.Strings(names)
	return names
}
