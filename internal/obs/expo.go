package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
)

// The exposition server (ISSUE 3): obs.Handler serves every observability
// surface of the process over HTTP —
//
//	/metrics        counters and histogram buckets in Prometheus text
//	                format, plus the windowed *_1m quantile and rate
//	                families when the timeline is ticking
//	/debug/requests the slowest recent requests and searches, each a root
//	                span with its per-shard spans and sampled execution
//	                traces, as JSON (?format=chrome: Chrome trace_event)
//	/debug/timeline the timeline ring: periodic windowed-quantile /
//	                rate / runtime snapshots, oldest first, as JSON
//	/debug/health   the structured ok/degraded/unhealthy verdict (503
//	                when unhealthy)
//	/debug/vars     the expvar export (including the "hyperdom" snapshot)
//	/debug/pprof    the runtime profiler endpoints
//
// Metric names follow the hyperdom_* convention: the registry name with
// every non-alphanumeric rune mapped to '_' behind a "hyperdom_" prefix,
// and histogram families suffixed "_seconds" with nanosecond bounds
// converted to seconds, per Prometheus base-unit convention.

// promName sanitizes a registry name into a Prometheus metric name.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + len("hyperdom_"))
	b.WriteString("hyperdom_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WriteMetrics writes the whole registry — counters (flat and labeled),
// then gauges, then histogram families — in Prometheus text exposition
// format. Labeled counters carry their label pairs in the registry key
// ("name|pairs", see GetOrNewLabeled) and are split back out here, with one
// # TYPE line per family.
func WriteMetrics(w io.Writer) error {
	snap := Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	// Order by (name, labels), not by raw key: '|' sorts after '_', so raw
	// order could split a labeled family around an unrelated longer name and
	// emit its # TYPE line twice.
	sort.Slice(names, func(i, j int) bool {
		ni, li := splitLabeled(names[i])
		nj, lj := splitLabeled(names[j])
		if ni != nj {
			return ni < nj
		}
		return li < lj
	})
	var family string
	for _, key := range names {
		name, labels := splitLabeled(key)
		pn := promName(name)
		if pn != family {
			family = pn
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", pn); err != nil {
				return err
			}
		}
		var err error
		if labels == "" {
			_, err = fmt.Fprintf(w, "%s %d\n", pn, snap[key])
		} else {
			_, err = fmt.Fprintf(w, "%s{%s} %d\n", pn, labels, snap[key])
		}
		if err != nil {
			return err
		}
	}

	gk, gv := gaugeSnapshot()
	family = ""
	for i, key := range gk {
		name, labels := splitLabeled(key)
		pn := promName(name)
		if pn != family {
			family = pn
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", pn); err != nil {
				return err
			}
		}
		var err error
		if labels == "" {
			_, err = fmt.Fprintf(w, "%s %g\n", pn, gv[i])
		} else {
			_, err = fmt.Fprintf(w, "%s{%s} %g\n", pn, labels, gv[i])
		}
		if err != nil {
			return err
		}
	}

	family = ""
	for _, h := range Histograms() {
		pn := promName(h.Name()) + "_seconds"
		if pn != family {
			family = pn
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
				return err
			}
		}
		if err := writeHistogram(w, pn, h.Labels(), h.Snap()); err != nil {
			return err
		}
	}
	return writeWindowedMetrics(w)
}

// writeWindowedMetrics emits the sliding-window families (ISSUE 9):
// per-family windowed quantile gauges suffixed "_1m" (nominal — the true
// span is WinSlots rotation periods) and, when the timeline rate ring is
// ticking, windowed per-second counter rates suffixed "_rate_1m". Gauge
// typed: windowed values go down as well as up.
func writeWindowedMetrics(w io.Writer) error {
	for _, name := range histogramFamilies() {
		ws := MergedWindow(name)
		if ws.Count == 0 {
			continue
		}
		pn := promName(name) + "_seconds_1m"
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", pn); err != nil {
			return err
		}
		for _, q := range [...]struct {
			label string
			p     float64
		}{{"0.5", 0.50}, {"0.9", 0.90}, {"0.99", 0.99}, {"0.999", 0.999}} {
			if _, err := fmt.Fprintf(w, "%s{quantile=%q} %g\n",
				pn, q.label, ws.Quantile(q.p)/1e9); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s_count gauge\n%s_count %d\n", pn, pn, ws.Count); err != nil {
			return err
		}
	}

	rates := Rates.RatesPerSec()
	keys := make([]string, 0, len(rates))
	for key := range rates {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		ni, li := splitLabeled(keys[i])
		nj, lj := splitLabeled(keys[j])
		if ni != nj {
			return ni < nj
		}
		return li < lj
	})
	family := ""
	for _, key := range keys {
		name, labels := splitLabeled(key)
		pn := promName(name) + "_rate_1m"
		if pn != family {
			family = pn
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", pn); err != nil {
				return err
			}
		}
		var err error
		if labels == "" {
			_, err = fmt.Fprintf(w, "%s %g\n", pn, rates[key])
		} else {
			_, err = fmt.Fprintf(w, "%s{%s} %g\n", pn, labels, rates[key])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram writes one labeled histogram instance: cumulative
// _bucket lines for every non-empty bucket boundary plus +Inf, then _sum
// and _count. Bounds are emitted in seconds.
func writeHistogram(w io.Writer, pn, labels string, s HistSnap) error {
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		cum += c
		le := strconv.FormatFloat(float64(histLower(i+1))/1e9, 'g', -1, 64)
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", pn, joinLabels(labels), le, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", pn, joinLabels(labels), s.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum{%s} %g\n%s_count{%s} %d\n",
		pn, labels, float64(s.Sum)/1e9, pn, labels, s.Count); err != nil {
		return err
	}
	return nil
}

// joinLabels returns labels ready to precede another pair inside braces.
func joinLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

// Handler returns the observability mux described above. Mount it on any
// server, or let Serve run it on a dedicated listener.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WriteMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/requests", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		roots := Requests.Dump() // never nil: an empty ring serves []
		var err error
		if r.URL.Query().Get("format") == "chrome" {
			err = WriteChromeTrace(w, roots)
		} else {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			err = enc.Encode(roots)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/timeline", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		snaps := TimelineSnapshots() // never nil: an empty ring serves []
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snaps); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/health", func(w http.ResponseWriter, r *http.Request) {
		v := Health()
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if v.Status == HealthUnhealthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
