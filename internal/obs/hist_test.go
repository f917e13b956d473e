package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestHistBucketScheme pins the log-linear mapping: indexes are monotone,
// lower bounds invert them, and bucket widths never exceed 1/16 of the
// bucket's lower bound (for values past the exact range).
func TestHistBucketScheme(t *testing.T) {
	if got := histIndex(-5); got != 0 {
		t.Errorf("histIndex(-5) = %d, want 0", got)
	}
	for v := int64(0); v < histSubBuckets; v++ {
		if got := histIndex(v); got != int(v) {
			t.Errorf("histIndex(%d) = %d, want exact unit bucket", v, got)
		}
		if got := histLower(int(v)); got != v {
			t.Errorf("histLower(%d) = %d, want %d", v, got, v)
		}
	}
	prev := -1
	for _, v := range []int64{16, 17, 31, 32, 33, 100, 1000, 1 << 20, 1<<42 - 1, 1 << 42, math.MaxInt64} {
		i := histIndex(v)
		if i < prev {
			t.Errorf("histIndex(%d) = %d below previous %d: not monotone", v, i, prev)
		}
		prev = i
		if i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of range", v, i)
		}
		lo := histLower(i)
		if v <= 1<<(histMaxTop+1) {
			if lo > v {
				t.Errorf("histLower(histIndex(%d)) = %d exceeds the sample", v, lo)
			}
			if up := histLower(i + 1); v >= up && i != histBuckets-1 {
				t.Errorf("sample %d ≥ upper bound %d of its bucket %d", v, up, i)
			}
			if v >= histSubBuckets && i < histBuckets-1 {
				if width := histLower(i+1) - lo; float64(width) > float64(lo)/16+0.5 {
					t.Errorf("bucket %d width %d exceeds lower/16 = %d", i, width, lo/16)
				}
			}
		}
	}
}

// TestHistQuantileErrorBounds records a known sample set straddling many
// bucket boundaries and checks every extracted quantile against the exact
// order statistic: the estimate must not exceed the true value and must be
// within one bucket's relative width (1/16) below it.
func TestHistQuantileErrorBounds(t *testing.T) {
	h := NewHistogram("test.hist.quantile", "")
	rng := rand.New(rand.NewSource(42))
	samples := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform over [16, 2^40): exercises boundaries at every scale.
		v := int64(math.Exp(rng.Float64()*math.Log(float64(int64(1)<<40))) + 16)
		samples = append(samples, v)
		h.Record(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	s := h.Snap()
	if s.Count != uint64(len(samples)) {
		t.Fatalf("Count = %d, want %d", s.Count, len(samples))
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		rank := int(math.Ceil(q * float64(len(samples))))
		if rank < 1 {
			rank = 1
		}
		truth := float64(samples[rank-1])
		got := s.Quantile(q)
		if got > truth {
			t.Errorf("Quantile(%g) = %g exceeds true order statistic %g", q, got, truth)
		}
		if got < truth*(1-1.0/16)-1 {
			t.Errorf("Quantile(%g) = %g undershoots %g by more than a bucket width", q, got, truth)
		}
	}
}

// TestHistEmptyQuantiles is the empty-histogram edge case: every quantile
// of zero samples is 0 — not NaN, not a panic.
func TestHistEmptyQuantiles(t *testing.T) {
	h := NewHistogram("test.hist.empty", "")
	s := h.Snap()
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		got := s.Quantile(q)
		if got != 0 || math.IsNaN(got) {
			t.Errorf("empty Quantile(%g) = %v, want 0", q, got)
		}
	}
	if m := s.Mean(); m != 0 {
		t.Errorf("empty Mean = %v, want 0", m)
	}
	var zero HistSnap
	if got := zero.Quantile(0.5); got != 0 {
		t.Errorf("zero-value HistSnap Quantile = %v, want 0", got)
	}
}

// TestHistConcurrentShardMerge hammers one histogram from concurrent
// recorders — through both the value-hashed and the owner-shard paths —
// while snapshots run, and checks no sample is lost. Run under -race this
// also proves the record/merge paths are data-race free.
func TestHistConcurrentShardMerge(t *testing.T) {
	h := NewHistogram("test.hist.concurrent", "")
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	stopSnaps := make(chan struct{})
	go func() {
		for {
			select {
			case <-stopSnaps:
				return
			default:
				h.Snap().Quantile(0.99)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := NextShard()
			for i := 0; i < per; i++ {
				v := int64(w*per + i)
				if w%2 == 0 {
					h.RecordShard(shard, v)
				} else {
					h.Record(v)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopSnaps)
	s := h.Snap()
	if s.Count != workers*per {
		t.Errorf("concurrent recording lost samples: Count = %d, want %d", s.Count, workers*per)
	}
	var bucketSum uint64
	for _, c := range s.Counts {
		bucketSum += c
	}
	if bucketSum != s.Count {
		t.Errorf("bucket sum %d disagrees with Count %d", bucketSum, s.Count)
	}
}

// TestHistRegistry pins registration semantics: duplicates panic, labeled
// instances are distinct, MergedHist folds a family together, and
// GetOrNewHistogram reuses.
func TestHistRegistry(t *testing.T) {
	a := NewHistogram("test.hist.family", `side="a"`)
	b := NewHistogram("test.hist.family", `side="b"`)
	if a == b {
		t.Fatal("labeled instances must be distinct")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate NewHistogram did not panic")
			}
		}()
		NewHistogram("test.hist.family", `side="a"`)
	}()
	if GetOrNewHistogram("test.hist.family", `side="a"`) != a {
		t.Error("GetOrNewHistogram did not reuse the registered instance")
	}
	a.Record(100)
	a.Record(100)
	b.Record(200)
	m := MergedHist("test.hist.family")
	if m.Count != 3 {
		t.Errorf("MergedHist Count = %d, want 3", m.Count)
	}
	if m.Sum != 400 {
		t.Errorf("MergedHist Sum = %d, want 400", m.Sum)
	}
	if MergedHist("test.hist.unknown").Quantile(0.5) != 0 {
		t.Error("MergedHist of unknown name is not empty")
	}
}

// TestStopwatch checks the timer helper: a running watch records one
// sample, a stopped (gate-off) watch records nothing.
func TestStopwatch(t *testing.T) {
	defer SetEnabled(true)
	h := NewHistogram("test.hist.stopwatch", "")

	SetEnabled(true)
	sw := StartTimer()
	if !sw.Started() {
		t.Fatal("StartTimer with the gate on returned a stopped watch")
	}
	time.Sleep(time.Millisecond)
	d := sw.Stop(h)
	if d < time.Millisecond {
		t.Errorf("Stop returned %v, want ≥ 1ms", d)
	}
	if got := h.Snap().Count; got != 1 {
		t.Errorf("histogram holds %d samples after Stop, want 1", got)
	}
	if q := h.Snap().Quantile(0.5); q < float64(time.Millisecond)*(1-1.0/16)-1 {
		t.Errorf("recorded latency quantile %.0fns below the slept millisecond", q)
	}

	SetEnabled(false)
	sw = StartTimer()
	if sw.Started() {
		t.Error("StartTimer with the gate off returned a running watch")
	}
	if d := sw.Stop(h); d != 0 {
		t.Errorf("stopped watch Stop returned %v, want 0", d)
	}
	if got := h.Snap().Count; got != 1 {
		t.Errorf("stopped watch recorded a sample: count %d", got)
	}
}

// TestHistRecordAllocs keeps the record path allocation-free.
func TestHistRecordAllocs(t *testing.T) {
	h := NewHistogram("test.hist.allocs", "")
	if allocs := testing.AllocsPerRun(100, func() { h.Record(12345) }); allocs != 0 {
		t.Errorf("Record allocates %.1f times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { h.RecordShard(1, 12345) }); allocs != 0 {
		t.Errorf("RecordShard allocates %.1f times per call, want 0", allocs)
	}
}

// TestResetForTest verifies registry-preserving zeroing across counters,
// histograms and the Requests ring.
func TestResetForTest(t *testing.T) {
	c := New("test.reset.counter")
	h := NewHistogram("test.reset.hist", "")
	c.Add(5)
	h.Record(100)
	Requests.Record(Request{LatencyNs: 999, K: 1})
	ResetForTest()
	if got := c.Load(); got != 0 {
		t.Errorf("counter = %d after ResetForTest, want 0", got)
	}
	if Lookup("test.reset.counter") != c {
		t.Error("ResetForTest dropped the counter registration")
	}
	if got := h.Snap().Count; got != 0 {
		t.Errorf("histogram Count = %d after ResetForTest, want 0", got)
	}
	if GetOrNewHistogram("test.reset.hist", "") != h {
		t.Error("ResetForTest dropped the histogram registration")
	}
	if dump := Requests.Dump(); len(dump) != 0 {
		t.Errorf("Requests ring holds %d roots after ResetForTest, want 0", len(dump))
	}
	c.Inc()
	h.Record(7)
	if c.Load() != 1 || h.Snap().Count != 1 {
		t.Error("registrations unusable after ResetForTest")
	}
}
