// Package server is the HTTP+JSON front of the sharded scatter-gather
// layer (DESIGN.md §13): multi-collection routing over shard.Index values,
// the paper's kNN and dominance queries as POST endpoints, and the obs
// stack (Prometheus /metrics, /debug handlers) mounted beside them.
//
// Endpoints:
//
//	POST /v1/collections/{name}/knn        {"center":[...],"radius":r,"k":k}
//	                                       ?explain=true adds the per-shard
//	                                       trace tree to the response
//	POST /v1/collections/{name}/dominates  {"a":sphere,"b":sphere,"criterion":"Hyperbola"?}
//	GET  /v1/collections                   collection inventory
//	GET  /healthz                          liveness
//	GET  /readyz                           readiness (503 until SetReady)
//	GET  /metrics, /debug/...              obs exposition
//
// Every /v1 request runs through one middleware (DESIGN.md §14): it honors
// or generates an X-Request-ID (echoed on the response), captures the
// status code, measures latency into the per-(collection, endpoint, code)
// hyperdom_server_request_latency_seconds family, counts it in
// hyperdom_server_requests_total{code,endpoint}, emits one structured JSON
// access-log line, and offers each kNN request — a root span over its
// per-shard spans, merge span and sampled execution traces — to the
// slowest-requests ring behind /debug/requests.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/obs"
	"hyperdom/internal/shard"
)

var (
	obsRequests    = obs.New("server.requests")
	obsBadRequests = obs.New("server.bad_requests")

	// inflight counts /v1 requests currently inside a handler, exposed as
	// the hyperdom_server_inflight_requests saturation gauge (ISSUE 9).
	// Process-wide rather than per-Server: the gauge answers "how loaded is
	// this process", and test servers coexisting briefly only ever add.
	inflight atomic.Int64
)

func init() {
	obs.RegisterGaugeFunc("server.inflight_requests", "", func() float64 {
		return float64(inflight.Load())
	})
}

// maxBodyBytes bounds request bodies: generous for high-dimensional
// centers, far below anything that could balloon the process.
const maxBodyBytes = 1 << 20

// maxRequestIDLen caps client-supplied X-Request-ID values; anything
// longer (or containing non-printable bytes) is replaced with a generated
// ID rather than echoed into logs.
const maxRequestIDLen = 128

// Server routes requests to named collections. Construct with New, attach
// collections with AddCollection, serve Handler(). Safe for concurrent
// use; Close stops every collection's shard pools.
type Server struct {
	mu          sync.RWMutex
	collections map[string]*shard.Index

	log    *slog.Logger
	ready  atomic.Bool
	reqSeq atomic.Uint64
	bootNs int64
}

// Option configures a Server.
type Option func(*Server)

// WithLogger sets the structured access-log destination. The default
// discards log output (library embedders opt in; hyperdomd wires stderr).
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) {
		if l != nil {
			s.log = l
		}
	}
}

// New returns a server with no collections, not yet ready.
func New(opts ...Option) *Server {
	s := &Server{
		collections: make(map[string]*shard.Index),
		log:         slog.New(slog.NewJSONHandler(discard{}, nil)),
		bootNs:      time.Now().UnixNano(),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// SetReady flips the /readyz verdict. hyperdomd calls SetReady(true) once
// every collection has finished building and freezing, so orchestrators
// (and the e2e CI job) can gate traffic on readiness instead of liveness.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports the current /readyz verdict.
func (s *Server) Ready() bool { return s.ready.Load() }

// AddCollection mounts x under /v1/collections/{name}. The server takes
// ownership: Close closes it. Duplicate names error.
func (s *Server) AddCollection(name string, x *shard.Index) error {
	if name == "" {
		return fmt.Errorf("server: empty collection name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.collections[name]; dup {
		return fmt.Errorf("server: duplicate collection %q", name)
	}
	s.collections[name] = x
	return nil
}

// Collections returns the mounted collection names, sorted.
func (s *Server) Collections() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.collections))
	for name := range s.collections {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Close stops every collection's shard pools.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, x := range s.collections {
		x.Close()
	}
	s.collections = make(map[string]*shard.Index)
	s.ready.Store(false)
}

// Handler returns the full route table, obs exposition included.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/collections/{name}/knn", s.wrap("knn", s.handleKNN))
	mux.HandleFunc("POST /v1/collections/{name}/dominates", s.wrap("dominates", s.handleDominates))
	mux.HandleFunc("GET /v1/collections", s.wrap("list", s.handleList))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "not ready")
			return
		}
		// Ready stays 200 even under degraded health — the server answers
		// queries, just not at its thresholds; orchestrators that want to
		// shed traffic act on the reported status (or on /debug/health,
		// which turns 503 when unhealthy).
		fmt.Fprintln(w, "ready")
		if hv := obs.Health(); hv.Status != obs.HealthOK {
			fmt.Fprintf(w, "health: %s\n", hv.Status)
			for _, reason := range hv.Reasons {
				fmt.Fprintf(w, "  - %s\n", reason)
			}
		}
	})
	mux.Handle("/metrics", obs.Handler())
	mux.Handle("/debug/", obs.Handler())
	return mux
}

// reqCtx is the per-request trace context the middleware threads through a
// handler: the response writer (capturing the status code on first write),
// the request identity, and the slots a kNN handler fills so the
// middleware — which alone knows the request's full wall latency — can
// record the request's root span.
type reqCtx struct {
	http.ResponseWriter
	id         string
	collection string
	status     int

	// Filled by handleKNN for successful searches: the scatter-gather
	// trace tree and the query's k, recorded under the request's root span
	// by the middleware after the response is written.
	explain *shard.Explain
	k       int
}

func (c *reqCtx) WriteHeader(code int) {
	if c.status == 0 {
		c.status = code
	}
	c.ResponseWriter.WriteHeader(code)
}

func (c *reqCtx) Write(b []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	return c.ResponseWriter.Write(b)
}

// requestID returns the client-supplied X-Request-ID when it is sane, else
// a fresh process-unique ID.
func (s *Server) requestID(r *http.Request) string {
	id := r.Header.Get("X-Request-ID")
	if id != "" && len(id) <= maxRequestIDLen {
		ok := true
		for i := 0; i < len(id); i++ {
			if id[i] < 0x21 || id[i] > 0x7e {
				ok = false
				break
			}
		}
		if ok {
			return id
		}
	}
	return fmt.Sprintf("%08x-%06d", uint32(s.bootNs), s.reqSeq.Add(1))
}

// wrap is the /v1 middleware described in the package comment.
func (s *Server) wrap(endpoint string, h func(*reqCtx, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := s.requestID(r)
		w.Header().Set("X-Request-ID", id)
		c := &reqCtx{ResponseWriter: w, id: id, collection: r.PathValue("name")}
		inflight.Add(1)
		start := time.Now()
		h(c, r)
		inflight.Add(-1)
		if c.status == 0 {
			c.status = http.StatusOK
		}
		lat := time.Since(start)

		if obs.On() {
			code := strconv.Itoa(c.status)
			obsRequests.Inc()
			obs.GetOrNewLabeled("server.requests_total",
				`code="`+code+`",endpoint="`+endpoint+`"`).Inc()
			obs.GetOrNewHistogram("server.request_latency",
				`collection="`+c.collection+`",endpoint="`+endpoint+`",code="`+code+`"`).
				Record(lat.Nanoseconds())
		}

		if c.explain != nil {
			obs.Requests.Record(obs.Request{
				RequestID:  id,
				Collection: c.collection,
				Endpoint:   endpoint,
				Status:     c.status,
				K:          c.k,
				WhenUnixNs: start.UnixNano(),
				LatencyNs:  lat.Nanoseconds(),
				Shards:     c.explain.Shards,
				Merge:      &c.explain.Merge,
			})
		}

		level := slog.LevelInfo
		switch {
		case c.status >= 500:
			level = slog.LevelError
		case c.status >= 400:
			level = slog.LevelWarn
		}
		s.log.LogAttrs(r.Context(), level, "request",
			slog.String("request_id", id),
			slog.String("collection", c.collection),
			slog.String("endpoint", endpoint),
			slog.Int("status", c.status),
			slog.Int("shards", len(c.explainShards())),
			slog.Int64("latency_ns", lat.Nanoseconds()),
		)
	}
}

func (c *reqCtx) explainShards() []obs.ShardSpan {
	if c.explain == nil {
		return nil
	}
	return c.explain.Shards
}

func (s *Server) lookup(name string) (*shard.Index, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	x, ok := s.collections[name]
	return x, ok
}

type sphereJSON struct {
	Center []float64 `json:"center"`
	Radius float64   `json:"radius"`
}

func (sj sphereJSON) sphere() (geom.Sphere, error) {
	if len(sj.Center) == 0 {
		return geom.Sphere{}, fmt.Errorf("empty center")
	}
	if sj.Radius < 0 || sj.Radius != sj.Radius {
		return geom.Sphere{}, fmt.Errorf("invalid radius %v", sj.Radius)
	}
	return geom.Sphere{Center: sj.Center, Radius: sj.Radius}, nil
}

type knnRequest struct {
	Center []float64 `json:"center"`
	Radius float64   `json:"radius"`
	K      int       `json:"k"`
}

type itemJSON struct {
	ID     int       `json:"id"`
	Center []float64 `json:"center"`
	Radius float64   `json:"radius"`
}

// knnResponse is the kNN answer. Explain is present only under
// ?explain=true — the answer fields are byte-identical either way.
type knnResponse struct {
	K       int            `json:"k"`
	IDs     []int          `json:"ids"`
	Items   []itemJSON     `json:"items"`
	Stats   knn.Stats      `json:"stats"`
	Explain *shard.Explain `json:"explain,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	if obs.On() {
		obsBadRequests.Inc()
	}
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeBody decodes the capped request body, mapping an over-cap read to
// 413 and any other decode failure to 400.
func decodeBody(c *reqCtx, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(c, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(c, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooBig.Limit)
		return false
	}
	writeError(c, http.StatusBadRequest, "bad request body: %v", err)
	return false
}

func (s *Server) handleKNN(c *reqCtx, r *http.Request) {
	x, ok := s.lookup(c.collection)
	if !ok {
		writeError(c, http.StatusNotFound, "unknown collection %q", c.collection)
		return
	}
	var req knnRequest
	if !decodeBody(c, r, &req) {
		return
	}
	sq, err := sphereJSON{Center: req.Center, Radius: req.Radius}.sphere()
	if err != nil {
		writeError(c, http.StatusBadRequest, "bad query sphere: %v", err)
		return
	}
	if len(sq.Center) != x.Dim() {
		writeError(c, http.StatusBadRequest, "query dim %d, collection dim %d", len(sq.Center), x.Dim())
		return
	}
	if req.K <= 0 {
		writeError(c, http.StatusBadRequest, "k must be >= 1, got %d", req.K)
		return
	}
	// Always search in explain mode: the trace tree feeds /debug/requests
	// whether or not the client asked to see it, and its cost is a couple
	// of slice allocations per request — zero per shard. Results are
	// bit-identical to the plain path (test-locked).
	res, ex := x.SearchExplain(sq, req.K)
	c.explain, c.k = ex, req.K
	resp := knnResponse{K: res.K, IDs: make([]int, 0, len(res.Items)), Stats: res.Stats}
	for _, it := range res.Items {
		resp.IDs = append(resp.IDs, it.ID)
		resp.Items = append(resp.Items, itemJSON{ID: it.ID, Center: it.Sphere.Center, Radius: it.Sphere.Radius})
	}
	if r.URL.Query().Get("explain") == "true" {
		resp.Explain = ex
	}
	writeJSON(c, http.StatusOK, resp)
}

type dominatesRequest struct {
	A         sphereJSON `json:"a"`
	B         sphereJSON `json:"b"`
	Q         sphereJSON `json:"q"`
	Criterion string     `json:"criterion"`
}

type dominatesResponse struct {
	Dominates bool   `json:"dominates"`
	Criterion string `json:"criterion"`
}

// handleDominates answers one dominance check DC(a, b, q): does a dominate
// b with respect to the collection-dimensioned query sphere q? The
// collection only anchors the dimensionality check; the verdict is pure
// geometry.
func (s *Server) handleDominates(c *reqCtx, r *http.Request) {
	x, ok := s.lookup(c.collection)
	if !ok {
		writeError(c, http.StatusNotFound, "unknown collection %q", c.collection)
		return
	}
	var req dominatesRequest
	if !decodeBody(c, r, &req) {
		return
	}
	crit := dominance.Criterion(dominance.Hyperbola{})
	if req.Criterion != "" {
		if crit = dominance.ByName(req.Criterion); crit == nil {
			writeError(c, http.StatusBadRequest, "unknown criterion %q", req.Criterion)
			return
		}
	}
	spheres := make([]geom.Sphere, 3)
	for i, sj := range []sphereJSON{req.A, req.B, req.Q} {
		sp, err := sj.sphere()
		if err != nil {
			writeError(c, http.StatusBadRequest, "bad sphere %q: %v", [3]string{"a", "b", "q"}[i], err)
			return
		}
		if len(sp.Center) != x.Dim() {
			writeError(c, http.StatusBadRequest, "sphere %q dim %d, collection dim %d",
				[3]string{"a", "b", "q"}[i], len(sp.Center), x.Dim())
			return
		}
		spheres[i] = sp
	}
	writeJSON(c, http.StatusOK, dominatesResponse{
		Dominates: crit.Dominates(spheres[0], spheres[1], spheres[2]),
		Criterion: crit.Name(),
	})
}

type collectionJSON struct {
	Name   string `json:"name"`
	Items  int    `json:"items"`
	Dim    int    `json:"dim"`
	Shards int    `json:"shards"`
}

func (s *Server) handleList(c *reqCtx, r *http.Request) {
	s.mu.RLock()
	out := make([]collectionJSON, 0, len(s.collections))
	for name, x := range s.collections {
		out = append(out, collectionJSON{Name: name, Items: x.Len(), Dim: x.Dim(), Shards: x.Shards()})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	writeJSON(c, http.StatusOK, map[string]any{"collections": out})
}
