package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Latency histograms (ISSUE 3). A Histogram is an HDR-style log-linear
// bucket array over int64 nanosecond samples: values below 16ns land in
// exact unit buckets, and every power-of-two range above is subdivided
// into 16 linear sub-buckets, so the relative width of any bucket is at
// most 1/16 (6.25%). The bucket array is fixed at compile time — no
// resizing, no allocation, ever — and covers up to 2^42ns (~73 minutes);
// slower samples clamp into the last bucket.
//
// The record path is lock-free and allocation-free: one atomic add into a
// bucket and one into the shard's running sum. To keep concurrent
// recorders from serialising on the same cache lines, each histogram is
// split into histShards independent shards that are merged only at
// snapshot time. Go offers no goroutine-local storage, so "per-goroutine"
// sharding is approximated two ways: long-lived owners (the kNN scratch
// arena, pooled per worker goroutine) hold a shard index from NextShard
// and record through RecordShard, while ownerless call sites use Record,
// which spreads samples across shards by hashing the value.
const (
	histSubBits    = 4
	histSubBuckets = 1 << histSubBits // linear sub-buckets per power of two
	histMaxTop     = 41               // highest bucketed power of two (2^42ns ≈ 73min)
	histBuckets    = histSubBuckets + (histMaxTop-histSubBits+1)*histSubBuckets

	histShardBits = 2
	histShards    = 1 << histShardBits
	histShardMask = histShards - 1
)

// histIndex maps a sample to its bucket.
func histIndex(v int64) int {
	if v < histSubBuckets {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	top := 63 - bits.LeadingZeros64(uint64(v))
	if top > histMaxTop {
		return histBuckets - 1
	}
	shift := top - histSubBits
	return (shift << histSubBits) + int(uint64(v)>>shift)
}

// histLower returns the inclusive lower bound of bucket i — the value
// quantile extraction reports, so estimates never exceed the true sample.
func histLower(i int) int64 {
	if i < histSubBuckets {
		return int64(i)
	}
	shift := (i >> histSubBits) - 1
	return int64(i-(shift<<histSubBits)) << shift
}

// histShard is one independently written slice of a histogram. The trailing
// pad keeps the next shard's first buckets off this shard's last cache
// line; the bucket array itself is written by at most a few goroutines per
// shard, which is the contention the sharding exists to bound.
type histShard struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Uint64
	_      [cacheLine - 8]byte
}

// Histogram is a registered, sharded log-linear latency histogram. All
// methods are safe for concurrent use; Record and RecordShard never
// allocate and take no locks. Construct with NewHistogram (or
// GetOrNewHistogram for runtime-derived names) so snapshots and the
// /metrics exposition can find it.
type Histogram struct {
	name   string
	labels string // Prometheus label pairs, e.g. `substrate="sstree",algo="DF"`; may be empty
	shards [histShards]histShard
	// win is the sliding-window side (ISSUE 9): WinSlots rotating time
	// shards over the same bucket layout, fed by the same record call.
	win histWindow
}

// Name returns the registered histogram name.
func (h *Histogram) Name() string { return h.name }

// Labels returns the constant Prometheus label pairs, without braces.
func (h *Histogram) Labels() string { return h.labels }

// Record adds one sample (nanoseconds), spreading concurrent recorders
// across shards by hashing the value. Callers on gated hot paths check
// On() themselves — Record does not, so batch-level instrumentation that
// already paid for the gate is not charged twice.
func (h *Histogram) Record(v int64) {
	shard := int((uint64(v) * 0x9E3779B97F4A7C15) >> (64 - histShardBits))
	h.RecordShard(shard, v)
}

// RecordShard adds one sample into the given shard. Owners that live on
// one goroutine (a pooled scratch arena, a worker) obtain a stable shard
// from NextShard once and pass it here, giving true per-goroutine striping.
func (h *Histogram) RecordShard(shard int, v int64) {
	s := &h.shards[shard&histShardMask]
	i := histIndex(v)
	s.counts[i].Add(1)
	if v > 0 {
		s.sum.Add(uint64(v))
	}
	h.win.record(i, v)
}

// RecordDuration records d in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(d.Nanoseconds()) }

// shardSeq hands out round-robin shard indexes to long-lived recorders.
var shardSeq atomic.Uint32

// NextShard returns a shard index for RecordShard, assigned round-robin so
// a pool of recorders spreads evenly across the histogram shards.
func NextShard() int { return int(shardSeq.Add(1)) & histShardMask }

// reset zeroes every shard. Not linearizable against concurrent recorders
// (a racing sample may survive or vanish); meant for ResetForTest.
func (h *Histogram) reset() {
	for s := range h.shards {
		sh := &h.shards[s]
		for i := range sh.counts {
			sh.counts[i].Store(0)
		}
		sh.sum.Store(0)
	}
	h.win.reset()
}

// HistSnap is a merged point-in-time reading of a histogram: the summed
// shard buckets, total sample count and nanosecond sum. The zero value
// behaves as an empty histogram.
type HistSnap struct {
	Name   string
	Labels string
	Counts []uint64 // len histBuckets; bucket i counts samples in [histLower(i), histLower(i+1))
	Count  uint64
	Sum    uint64 // nanoseconds
}

// Snap merges the shards into one consistent-enough reading: each bucket
// load is atomic, but buckets may advance between loads, exactly like
// Snapshot over counters.
func (h *Histogram) Snap() HistSnap {
	s := HistSnap{Name: h.name, Labels: h.labels, Counts: make([]uint64, histBuckets)}
	for sh := range h.shards {
		shard := &h.shards[sh]
		for i := range s.Counts {
			c := shard.counts[i].Load()
			s.Counts[i] += c
			s.Count += c
		}
		s.Sum += shard.sum.Load()
	}
	return s
}

// merge folds o's buckets into s (for combining labeled instances of one
// metric). Both sides must be full-length snapshots or zero values.
func (s *HistSnap) merge(o HistSnap) {
	if s.Counts == nil {
		s.Counts = make([]uint64, histBuckets)
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) in nanoseconds: the lower
// bound of the bucket holding the sample of that rank, so the estimate
// never exceeds the true value and undershoots by at most one bucket width
// (≤ 1/16 relative for samples ≥ 16ns). An empty histogram returns 0 for
// every q — never NaN, never a panic.
func (s HistSnap) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			return float64(histLower(i))
		}
	}
	return float64(histLower(histBuckets - 1))
}

// Mean returns the mean sample in nanoseconds, or 0 when empty.
func (s HistSnap) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// histRegistry is the global (name, labels) → histogram table, a sibling
// of the counter registry with the same init-time registration contract.
var histRegistry struct {
	mu sync.RWMutex
	m  map[string]*Histogram
}

func histKey(name, labels string) string { return name + "{" + labels + "}" }

// NewHistogram registers and returns a histogram under the given name and
// constant Prometheus label pairs (e.g. `substrate="sstree",algo="DF"`;
// empty for none). Instances sharing a name form one labeled metric family
// in the /metrics exposition. Panics on a duplicate (name, labels) pair.
func NewHistogram(name, labels string) *Histogram {
	histRegistry.mu.Lock()
	defer histRegistry.mu.Unlock()
	if histRegistry.m == nil {
		histRegistry.m = make(map[string]*Histogram)
	}
	key := histKey(name, labels)
	if _, dup := histRegistry.m[key]; dup {
		panic("obs: duplicate histogram " + key)
	}
	h := &Histogram{name: name, labels: labels}
	histRegistry.m[key] = h
	return h
}

// GetOrNewHistogram returns the histogram registered under (name, labels),
// creating it if needed — for names or labels derived at runtime.
func GetOrNewHistogram(name, labels string) *Histogram {
	key := histKey(name, labels)
	histRegistry.mu.RLock()
	h := histRegistry.m[key]
	histRegistry.mu.RUnlock()
	if h != nil {
		return h
	}
	histRegistry.mu.Lock()
	defer histRegistry.mu.Unlock()
	if histRegistry.m == nil {
		histRegistry.m = make(map[string]*Histogram)
	}
	if h := histRegistry.m[key]; h != nil {
		return h
	}
	h = &Histogram{name: name, labels: labels}
	histRegistry.m[key] = h
	return h
}

// Histograms returns every registered histogram, sorted by (name, labels)
// so exposition output is stable.
func Histograms() []*Histogram {
	histRegistry.mu.RLock()
	defer histRegistry.mu.RUnlock()
	out := make([]*Histogram, 0, len(histRegistry.m))
	for _, h := range histRegistry.m {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// MergedHist merges every labeled instance registered under name into one
// snapshot — the whole-metric view quantile summaries are computed from.
// An unknown name yields an empty (all-zero) snapshot.
func MergedHist(name string) HistSnap {
	merged := HistSnap{Name: name, Counts: make([]uint64, histBuckets)}
	for _, h := range Histograms() {
		if h.name == name {
			merged.merge(h.Snap())
		}
	}
	return merged
}

// Stopwatch measures one latency sample from time.Now deltas. The zero
// value is a stopped watch: StartTimer returns one when instrumentation is
// disabled, and Stop on it records nothing, so call sites need no second
// gate check.
type Stopwatch struct {
	t0 time.Time
}

// StartTimer starts a stopwatch, or returns a stopped one when the obs
// gate is off (no clock read).
func StartTimer() Stopwatch {
	if !On() {
		return Stopwatch{}
	}
	return Stopwatch{t0: time.Now()}
}

// Started reports whether the stopwatch is running.
func (sw Stopwatch) Started() bool { return !sw.t0.IsZero() }

// Stop records the elapsed time into h (if non-nil) and returns it. On a
// stopped watch it records nothing and returns 0.
func (sw Stopwatch) Stop(h *Histogram) time.Duration {
	if sw.t0.IsZero() {
		return 0
	}
	d := time.Since(sw.t0)
	if h != nil {
		h.RecordDuration(d)
	}
	return d
}

// ResetForTest zeroes every registered counter and histogram and clears
// the Requests ring, preserving all registrations — so tests (and
// measurement harnesses like benchkernel) can assert absolute readings
// instead of diffing snapshots of monotonically growing globals. It is not
// linearizable against concurrent recorders; quiesce the workload first.
func ResetForTest() {
	registry.mu.RLock()
	for _, c := range registry.m {
		c.v.Store(0)
	}
	registry.mu.RUnlock()
	histRegistry.mu.RLock()
	for _, h := range histRegistry.m {
		h.reset()
	}
	histRegistry.mu.RUnlock()
	Requests.Reset()
	Rates.Reset()
	gauges.mu.RLock()
	for _, g := range gauges.m {
		g.store(0)
	}
	gauges.mu.RUnlock()
}
