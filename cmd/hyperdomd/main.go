// Command hyperdomd serves the sharded scatter-gather kNN layer over HTTP
// (DESIGN.md §13): it loads one or more hypersphere collections, carves
// each into space-partitioned shards with their own engine pools, and
// exposes the paper's Definition 2 kNN query plus single dominance checks
// as JSON endpoints, with the full obs stack (Prometheus /metrics, /debug
// handlers) mounted beside them.
//
//	hyperdomd -data corpus.csv -shards 4
//	curl -s localhost:8080/v1/collections/default/knn \
//	  -d '{"center":[57.1,49.9,50.7],"radius":0.5,"k":5}'
//
// With -oracle it instead answers one query in process over a plain
// single-index search and prints {"ids":[...]} — the ground truth the CI
// server-e2e job diffs the HTTP answer against.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hyperdom/internal/buildinfo"
	"hyperdom/internal/dataset"
	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/obs"
	"hyperdom/internal/server"
	"hyperdom/internal/shard"
	"hyperdom/internal/sstree"
)

type config struct {
	addr        string
	data        string
	collections string
	n, d        int
	seed        int64
	shards      int
	workers     int
	substrate   string
	maxFill     int
	algo        string
	noPushdown  bool

	snapshotDir    string
	snapshotVerify bool

	timelinePeriod time.Duration
	timelineSlots  int
	healthP99      time.Duration
	healthErrRate  float64
	healthQueueSat float64

	oracle  bool
	k       int
	query   string
	qradius float64
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("hyperdomd", flag.ContinueOnError)
	var c config
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.data, "data", "", `CSV corpus ("id,radius,c1,…,cd") for the "default" collection; empty generates a synthetic one`)
	fs.StringVar(&c.collections, "collections", "", "extra collections as name=path[,name=path...]")
	fs.IntVar(&c.n, "n", 2000, "synthetic corpus size (when -data is empty)")
	fs.IntVar(&c.d, "d", 4, "synthetic corpus dimensionality")
	fs.Int64Var(&c.seed, "seed", 1, "synthetic corpus seed")
	fs.IntVar(&c.shards, "shards", 2, "shards per collection")
	fs.IntVar(&c.workers, "workers-per-shard", 0, "engine workers per shard (0 = auto)")
	fs.StringVar(&c.substrate, "substrate", "sstree", "index substrate: sstree|mtree|rtree")
	fs.IntVar(&c.maxFill, "maxfill", 0, "substrate node capacity (0 = default)")
	fs.StringVar(&c.algo, "algo", "hs", "per-shard traversal: hs|df")
	fs.BoolVar(&c.noPushdown, "no-pushdown", false, "disable cross-shard distK pushdown")
	fs.StringVar(&c.snapshotDir, "snapshot-dir", "", "snapshot root: each collection loads zero-copy from DIR/<name> when present and compatible, else builds and saves there for the next start")
	fs.BoolVar(&c.snapshotVerify, "snapshot-verify", false, "checksum every snapshot section at load (trades the lazy mmap cold-start for eager corruption detection)")
	fs.DurationVar(&c.timelinePeriod, "timeline-period", obs.DefaultTimelinePeriod, "telemetry timeline tick (window rotation) period")
	fs.IntVar(&c.timelineSlots, "timeline-slots", obs.DefaultTimelineSlots, "telemetry timeline ring capacity (snapshots retained)")
	fs.DurationVar(&c.healthP99, "health-p99", 250*time.Millisecond, "degraded when windowed request p99 exceeds this (0 disables)")
	fs.Float64Var(&c.healthErrRate, "health-error-rate", 0.05, "degraded when windowed 5xx fraction exceeds this (0 disables)")
	fs.Float64Var(&c.healthQueueSat, "health-queue-sat", 0.8, "degraded when engine queue depth/capacity exceeds this (0 disables)")
	fs.BoolVar(&c.oracle, "oracle", false, "answer one query in process (single-index oracle) and exit")
	fs.IntVar(&c.k, "k", 5, "oracle: k")
	fs.StringVar(&c.query, "query", "", "oracle: query center as c1,c2,...")
	fs.Float64Var(&c.qradius, "qradius", 0, "oracle: query radius")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	switch c.algo {
	case "hs", "df":
	default:
		return c, fmt.Errorf("unknown -algo %q", c.algo)
	}
	return c, nil
}

func (c config) algorithm() knn.Algorithm {
	if c.algo == "df" {
		return knn.DF
	}
	return knn.HS
}

// parseCollections splits "name=path,name=path" into ordered pairs.
func parseCollections(s string) ([][2]string, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([][2]string, 0, len(parts))
	for _, p := range parts {
		name, path, ok := strings.Cut(p, "=")
		if !ok || name == "" || path == "" {
			return nil, fmt.Errorf("bad -collections entry %q (want name=path)", p)
		}
		out = append(out, [2]string{name, path})
	}
	return out, nil
}

// parseCenter parses a comma-separated query center.
func parseCenter(s string) ([]float64, error) {
	if s == "" {
		return nil, errors.New("empty -query")
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -query coordinate %q: %v", p, err)
		}
		out[i] = v
	}
	return out, nil
}

func loadCorpus(path string) ([]geom.Item, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	items, err := dataset.LoadCSV(f)
	if err != nil {
		return nil, 0, err
	}
	if len(items) == 0 {
		return nil, 0, fmt.Errorf("%s: empty corpus", path)
	}
	return items, len(items[0].Sphere.Center), nil
}

// syntheticCorpus mirrors the Gaussian workload of the bench fixtures:
// centers at 100±25 per coordinate, radii uniform in [0, 2).
func syntheticCorpus(n, d int, seed int64) []geom.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]geom.Item, n)
	for i := range items {
		c := make([]float64, d)
		for j := range c {
			c[j] = 100 + rng.NormFloat64()*25
		}
		items[i] = geom.Item{Sphere: geom.NewSphere(c, rng.Float64()*2), ID: i}
	}
	return items
}

// runOracle answers one query over a plain single SS-tree search — the
// in-process ground truth of the CI server-e2e job — and prints the answer
// IDs as JSON.
func runOracle(c config, stdout *os.File) error {
	if c.data == "" {
		return errors.New("-oracle requires -data")
	}
	items, dim, err := loadCorpus(c.data)
	if err != nil {
		return err
	}
	center, err := parseCenter(c.query)
	if err != nil {
		return err
	}
	if len(center) != dim {
		return fmt.Errorf("-query dim %d, corpus dim %d", len(center), dim)
	}
	if c.qradius < 0 {
		return fmt.Errorf("bad -qradius %v", c.qradius)
	}
	t := sstree.New(dim)
	for _, it := range items {
		t.Insert(it)
	}
	res := knn.Search(knn.WrapSSTree(t), geom.NewSphere(center, c.qradius), c.k,
		dominance.Hyperbola{}, c.algorithm())
	ids := make([]int, 0, len(res.Items))
	for _, it := range res.Items {
		ids = append(ids, it.ID)
	}
	return json.NewEncoder(stdout).Encode(map[string]any{"ids": ids})
}

func buildCollection(c config, items []geom.Item, dim int, label string) (*shard.Index, error) {
	return shard.Build(items, dim, shard.Options{
		Shards:          c.shards,
		WorkersPerShard: c.workers,
		Substrate:       c.substrate,
		MaxFill:         c.maxFill,
		Algorithm:       c.algorithm(),
		DisablePushdown: c.noPushdown,
		Label:           label,
	})
}

// mountCollection resolves one collection. With -snapshot-dir set it first
// tries DIR/<name>: a present, compatible snapshot directory mmaps straight
// into serving with no tree rebuild (the instant cold-start path). A
// missing directory falls back to building from the corpus; an unusable one
// (corrupt, version skew) is logged and rebuilt over. Whenever the
// collection had to be built, the fresh index is saved back so the next
// start takes the fast path. corpus is called only when a build is needed.
func mountCollection(c config, name string, corpus func() ([]geom.Item, int, error)) (*shard.Index, error) {
	if c.snapshotDir != "" {
		dir := filepath.Join(c.snapshotDir, name)
		start := time.Now()
		x, err := shard.OpenDir(dir, shard.OpenOptions{
			WorkersPerShard: c.workers,
			Algorithm:       c.algorithm(),
			DisablePushdown: c.noPushdown,
			Label:           name,
			Verify:          c.snapshotVerify,
		})
		if err == nil {
			log.Printf("collection %s: loaded snapshot %s in %v (%d items, dim %d, %d shards)",
				name, dir, time.Since(start).Round(time.Microsecond), x.Len(), x.Dim(), x.Shards())
			return x, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			log.Printf("collection %s: snapshot %s unusable, rebuilding: %v", name, dir, err)
		}
	}
	items, dim, err := corpus()
	if err != nil {
		return nil, err
	}
	x, err := buildCollection(c, items, dim, name)
	if err != nil {
		return nil, err
	}
	if c.snapshotDir != "" {
		dir := filepath.Join(c.snapshotDir, name)
		if err := x.SaveDir(dir); err != nil {
			log.Printf("collection %s: snapshot save to %s failed: %v", name, dir, err)
		} else {
			log.Printf("collection %s: snapshot saved to %s", name, dir)
		}
	}
	return x, nil
}

// HTTP server timeouts. A kNN request is a small JSON body answered in
// milliseconds (the widest benchmark workload's p99 is a few ms), so each
// bound sits far above legitimate traffic and only cuts off stalled or
// hostile connections.
const (
	// readHeaderTimeout bounds slow-header (slowloris) connections; a real
	// client sends its headers in one packet.
	readHeaderTimeout = 5 * time.Second
	// readTimeout bounds the whole request read: the largest accepted body
	// (1 MiB) arrives well within it even at 50 KB/s.
	readTimeout = 30 * time.Second
	// writeTimeout bounds handler plus response write. It must exceed the
	// default 30 s /debug/pprof/profile capture, the slowest legitimate
	// handler the mux serves.
	writeTimeout = 60 * time.Second
	// idleTimeout closes keep-alive connections idle this long, bounding
	// the descriptors parked clients hold.
	idleTimeout = 120 * time.Second
)

// newHTTPServer builds hyperdomd's HTTP server for h with the timeouts
// above.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func run(c config) error {
	obs.SetEnabled(true)
	obs.SetGauge("build_info",
		fmt.Sprintf(`version=%q,go_version=%q,quant_mode=%q`,
			buildinfo.Version, runtime.Version(), knn.QuantModeNow()), 1)

	// Time-aware telemetry (ISSUE 9): the timeline ticker drives window
	// rotation, rate deltas, runtime sampling and the snapshot ring; the
	// health thresholds turn those windows into the /debug/health verdict
	// (and the degraded notes on /readyz).
	obs.SetHealthConfig(obs.HealthConfig{
		LatencyFamily:      "server.request_latency",
		LatencyP99Max:      c.healthP99,
		ErrorRateMax:       c.healthErrRate,
		QueueSaturationMax: c.healthQueueSat,
	})
	obs.StartTimeline(c.timelinePeriod, c.timelineSlots)
	defer obs.StopTimeline()

	srv := server.New(server.WithLogger(slog.New(slog.NewJSONHandler(os.Stderr, nil))))
	defer srv.Close()

	// Listen before building: liveness (/healthz) answers immediately while
	// the corpora load and freeze, and /readyz stays 503 until every
	// collection is mounted — orchestrators gate traffic on readiness, not
	// on the process existing.
	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer(c.addr, srv.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Printf("hyperdomd listening on %s (not ready)", ln.Addr())

	x, err := mountCollection(c, "default", func() ([]geom.Item, int, error) {
		if c.data != "" {
			return loadCorpus(c.data)
		}
		return syntheticCorpus(c.n, c.d, c.seed), c.d, nil
	})
	if err != nil {
		return err
	}
	if err := srv.AddCollection("default", x); err != nil {
		return err
	}
	log.Printf("collection default: %d items, dim %d, %d shards (%v)", x.Len(), x.Dim(), x.Shards(), x.ShardSizes())

	extra, err := parseCollections(c.collections)
	if err != nil {
		return err
	}
	for _, nc := range extra {
		path := nc[1]
		x, err := mountCollection(c, nc[0], func() ([]geom.Item, int, error) {
			return loadCorpus(path)
		})
		if err != nil {
			return err
		}
		if err := srv.AddCollection(nc[0], x); err != nil {
			return err
		}
		log.Printf("collection %s: %d items, dim %d, %d shards", nc[0], x.Len(), x.Dim(), x.Shards())
	}

	srv.SetReady(true)
	log.Printf("hyperdomd ready (version %s)", buildinfo.Version)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, let in-flight requests finish, then
	// stop the shard pools (srv.Close via defer).
	log.Printf("shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		return err
	}
	return nil
}

func main() {
	c, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if c.oracle {
		if err := runOracle(c, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "hyperdomd:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(c); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "hyperdomd:", err)
		os.Exit(1)
	}
}
