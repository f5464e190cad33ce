// Package serve is the read side of a computed connectivity labeling as a
// long-lived HTTP/JSON service: load a graph once, label it once, then
// answer component queries at high QPS from the immutable answer array.
//
// The labeling is published with a single atomic pointer store
// ([Server.Publish]) and never mutated afterwards, so every query handler
// reads it lock-free and concurrently; until Publish, the /v1 endpoints
// answer 503 and /v1/healthz acts as the readiness gate. Request latency,
// counters and spans come from an attached Observer and are exposed at
// /metrics, not here.
//
// Endpoints (all JSON):
//
//	GET  /v1/component?v=ID      component label of one vertex
//	GET  /v1/same?u=ID&v=ID      whether two vertices share a component
//	POST /v1/batch               body [[u,v],...]: same-component per pair
//	POST /v1/insert              body [[u,v],...]: insert an edge batch into
//	                             the incremental layer and publish the next
//	                             epoch (EnableIncremental servers only)
//	GET  /v1/stats               graph/labeling summary: component count,
//	                             size histogram, top-k sizes
//	GET  /v1/healthz             200 once the labeling is published, 503
//	                             while loading
//
// The [[u,v],...] bodies are parsed strictly, and the 200 answers of the
// four query and insert endpoints are written without reflection
// (codec.go), byte-for-byte what encoding/json writes.
//
// A server with EnableIncremental attached is no longer read-only. Each
// published epoch is an immutable header (epoch, edge count) pointing at an
// immutable view: the labeling and its component sizes, so a read is an
// array load. /v1/insert batches are applied one at a time under the
// server's insert mutex. A batch that merges nothing publishes a copy of
// the header that shares the view, in O(batch); a merging batch takes one
// parconn.Incremental snapshot and indexes it as a new view, in O(n).
// /v1/stats derives its top-k and size histogram from the view on first
// use, once per view, so no insert pays for them.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parconn"
	"parconn/internal/graph"
	"parconn/internal/obs"
)

// DefaultMaxBatch bounds the number of pairs one /v1/batch request may
// carry when Config.MaxBatch is zero. The bound keeps one client from
// turning the point-query service into an unbounded scan: 4096 pairs is
// far above any sane batching window but caps the per-request work.
const DefaultMaxBatch = 4096

// Endpoint names, the endpoint label of the Observer's series.
const (
	EndpointComponent = "component"
	EndpointSame      = "same"
	EndpointBatch     = "batch"
	EndpointInsert    = "insert"
	EndpointStats     = "stats"
)

// Config parameterizes a Server.
type Config struct {
	// MaxBatch caps the pairs per /v1/batch request (0 = DefaultMaxBatch).
	MaxBatch int
	// TopK is how many largest components /v1/stats reports (0 = 5).
	TopK int
	// Observer, when set, instruments every endpoint but healthz with
	// request counters, error-taxonomy counters, latency histograms, trace
	// IDs, and head-sampled spans, and registers
	// the readiness and epoch gauges (see NewObserver). Nil serves the bare
	// handlers.
	Observer *Observer
}

// Labeling is the immutable artifact a Server publishes: the answer array
// plus the metadata /v1/stats reports. Every label must be a vertex id, as
// in the canonical labelings ConnectedComponents returns. Labels must not
// be mutated after Publish — every request goroutine reads it without
// synchronization.
type Labeling struct {
	Labels    []int32
	Edges     int64         // undirected edge count of the labeled graph
	Algorithm string        // e.g. "decomp-arb-hybrid-CC"
	Source    string        // where the graph came from (file path or generator spec)
	LoadTime  time.Duration // graph load + build time
	LabelTime time.Duration // connectivity computation time
}

// published is one epoch of the read-side state: its header, and the view
// that answers its queries. Nothing in it is written after the Store that
// publishes it.
type published struct {
	lab   Labeling // metadata only: Labels is nil, the view holds them
	epoch uint64   // incremental generation (0 for a Publish-ed labeling)
	since time.Time
	view  *view
}

// Server answers connectivity queries over a published Labeling. Create
// with New, mount Handler, then Publish the labeling when it is ready.
// EnableIncremental additionally activates /v1/insert, which applies edge
// batches to a parconn.Incremental and publishes one epoch per batch.
type Server struct {
	cfg     Config
	pub     atomic.Pointer[published]
	inc     atomic.Pointer[parconn.Incremental]
	incBase atomic.Int64 // Labeling.Edges at EnableIncremental time
	obs     *Observer    // nil = uninstrumented

	// insertMu orders the writers of pub: each insert derives its epoch
	// from the one before, and Publish must not be overwritten by an
	// insert that started earlier.
	insertMu sync.Mutex
}

// New returns a Server that is not yet ready: queries answer 503 until
// Publish.
func New(cfg Config) *Server {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 5
	}
	s := &Server{cfg: cfg, obs: cfg.Observer}
	if s.obs != nil {
		s.obs.bind(s)
	}
	return s
}

// Publish makes lab the served labeling and flips the server ready. The
// labeling is shared immutably from here on; callers must not write to
// lab.Labels afterwards. Publishing again replaces the labeling atomically
// (in-flight requests finish against whichever version they loaded). The
// /v1/stats summary is computed on its first request.
func (s *Server) Publish(lab Labeling) {
	p := &published{
		view:  newView(lab.Labels),
		since: time.Now(), //parconn:allow norand uptime stopwatch for /v1/stats; no algorithmic randomness
	}
	lab.Labels = nil
	p.lab = lab
	s.insertMu.Lock()
	s.pub.Store(p)
	s.insertMu.Unlock()
}

// Ready reports whether a labeling has been published.
func (s *Server) Ready() bool { return s.pub.Load() != nil }

// EnableIncremental attaches the mutable connectivity layer behind
// /v1/insert. Call it after Publish-ing the labeling inc was seeded from:
// the current labeling's edge count becomes the base that insert batches
// add to. Once attached, the server must be inc's only writer, since a
// batch that merges nothing keeps the published labeling: no Insert or
// Compact from elsewhere. Until this is called, /v1/insert answers 501.
func (s *Server) EnableIncremental(inc *parconn.Incremental) {
	if p := s.pub.Load(); p != nil {
		s.incBase.Store(p.lab.Edges)
	}
	s.inc.Store(inc)
}

// insert applies one validated batch to inc and publishes the epoch it
// produces, returning the count of merges and that epoch. Inserts run one
// at a time, so inc has no other writer and the epoch after the batch is
// derived from the one before: a copy of the header when nothing merged,
// a new view of inc's snapshot when something did.
func (s *Server) insert(inc *parconn.Incremental, edges []parconn.Edge) (int, *published, error) {
	s.insertMu.Lock()
	defer s.insertMu.Unlock()
	p := s.pub.Load()
	merged, err := inc.Insert(edges)
	if err != nil || inc.Epoch() == p.epoch {
		return merged, p, err // rejected, or an empty batch: nothing applied
	}
	np := *p
	np.epoch = inc.Epoch()
	np.lab.Edges = s.incBase.Load() + inc.Edges()
	np.since = time.Now() //parconn:allow norand uptime stopwatch for /v1/stats; no algorithmic randomness
	if merged > 0 {
		np.view = newView(inc.Snapshot().Labels)
	}
	s.pub.Store(&np)
	return merged, &np, nil
}

// Handler returns the /v1 mux. Mount it on the command's root mux,
// typically alongside obshttp's debug handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/component", s.observed(EndpointComponent, s.serveComponent))
	mux.HandleFunc("/v1/same", s.observed(EndpointSame, s.serveSame))
	mux.HandleFunc("/v1/batch", s.observed(EndpointBatch, s.serveBatch))
	mux.HandleFunc("/v1/insert", s.observed(EndpointInsert, s.serveInsert))
	mux.HandleFunc("/v1/stats", s.observed(EndpointStats, s.serveStats))
	mux.HandleFunc("/v1/healthz", s.serveHealthz)
	return mux
}

// observed wraps h in the Observer's request middleware (trace IDs,
// taxonomy counters, latency, sampled spans), or returns h itself on an
// uninstrumented server.
func (s *Server) observed(name string, h http.HandlerFunc) http.HandlerFunc {
	if o := s.obs; o != nil {
		return func(w http.ResponseWriter, r *http.Request) {
			o.observe(name, h, w, r)
		}
	}
	return h
}

// errorBody is the JSON shape of every non-2xx answer.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// loaded returns the published state, or answers 503 and nil while the
// labeling is still being computed.
func (s *Server) loaded(w http.ResponseWriter) *published {
	p := s.pub.Load()
	if p == nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "labeling not ready")
	}
	return p
}

// vertexParam parses the vertex id query parameter name of q: 400 for
// missing or non-numeric values, 404 for ids outside [0, n).
func vertexParam(w http.ResponseWriter, q url.Values, name string, n int) (int32, bool) {
	raw := q.Get(name)
	if raw == "" {
		writeError(w, http.StatusBadRequest, "missing query parameter %q", name)
		return 0, false
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parameter %q: not a vertex id: %q", name, raw)
		return 0, false
	}
	if v < 0 || v >= int64(n) {
		writeError(w, http.StatusNotFound, "vertex %d outside [0, %d)", v, n)
		return 0, false
	}
	return int32(v), true
}

func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return false
	}
	return true
}

// componentResponse answers /v1/component.
type componentResponse struct {
	V         int32 `json:"v"`
	Component int32 `json:"component"`
	Size      int   `json:"size"`
}

func (s *Server) serveComponent(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	p := s.loaded(w)
	if p == nil {
		return
	}
	v, ok := vertexParam(w, r.URL.Query(), "v", len(p.view.labels))
	if !ok {
		return
	}
	label, size := p.view.component(v)
	sc := scratchPool.Get().(*scratch)
	defer sc.put()
	sc.buf = appendComponent(sc.buf[:0], componentResponse{V: v, Component: label, Size: int(size)})
	writeBody(w, sc.buf)
}

// sameResponse answers /v1/same.
type sameResponse struct {
	U    int32 `json:"u"`
	V    int32 `json:"v"`
	Same bool  `json:"same"`
}

func (s *Server) serveSame(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	p := s.loaded(w)
	if p == nil {
		return
	}
	q := r.URL.Query()
	u, ok := vertexParam(w, q, "u", len(p.view.labels))
	if !ok {
		return
	}
	v, ok := vertexParam(w, q, "v", len(p.view.labels))
	if !ok {
		return
	}
	sc := scratchPool.Get().(*scratch)
	defer sc.put()
	sc.buf = appendSame(sc.buf[:0], sameResponse{U: u, V: v, Same: p.view.labels[u] == p.view.labels[v]})
	writeBody(w, sc.buf)
}

// batchResponse answers /v1/batch: Same[i] corresponds to request pair i.
type batchResponse struct {
	Count int    `json:"count"`
	Same  []bool `json:"same"`
}

func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	p := s.loaded(w)
	if p == nil {
		return
	}
	sc := scratchPool.Get().(*scratch)
	defer sc.put()
	if !s.readPairs(w, r, sc, int64(len(p.view.labels)), "pair") {
		return
	}
	sc.buf = appendBatch(sc.buf[:0], sc.pairs, p.view.labels)
	writeBody(w, sc.buf)
}

// insertResponse answers /v1/insert: how many edges the batch carried, how
// many merged two components, and the generation + component count of the
// epoch the batch published.
type insertResponse struct {
	Inserted   int    `json:"inserted"`
	Merged     int    `json:"merged"`
	Epoch      uint64 `json:"epoch"`
	Components int    `json:"components"`
}

func (s *Server) serveInsert(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	if s.loaded(w) == nil {
		return
	}
	inc := s.inc.Load()
	if inc == nil {
		writeError(w, http.StatusNotImplemented, "incremental updates not enabled")
		return
	}
	sc := scratchPool.Get().(*scratch)
	defer sc.put()
	if !s.readPairs(w, r, sc, int64(inc.Vertices()), "edge") {
		return
	}
	sc.edges = sc.edges[:0]
	for _, pr := range sc.pairs {
		sc.edges = append(sc.edges, parconn.Edge{U: int32(pr[0]), V: int32(pr[1])})
	}
	merged, p, err := s.insert(inc, sc.edges)
	if err != nil {
		// Unreachable after the range check above, but never 500 on input.
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	annotateEpoch(r.Context(), p.epoch)
	sc.buf = appendInsert(sc.buf[:0], insertResponse{Inserted: len(sc.edges), Merged: merged, Epoch: p.epoch, Components: p.view.components})
	writeBody(w, sc.buf)
}

// statsResponse answers /v1/stats.
type statsResponse struct {
	Vertices      int                   `json:"vertices"`
	Edges         int64                 `json:"edges"`
	Components    int                   `json:"components"`
	Epoch         uint64                `json:"epoch"`
	Algorithm     string                `json:"algorithm"`
	Source        string                `json:"source,omitempty"`
	LoadMS        float64               `json:"load_ms"`
	LabelMS       float64               `json:"label_ms"`
	UptimeSec     float64               `json:"uptime_sec"`
	TopComponents []graph.ComponentSize `json:"top_components"`
	SizeHistogram obs.HistogramSnapshot `json:"size_histogram"`
}

func (s *Server) serveStats(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	p := s.loaded(w)
	if p == nil {
		return
	}
	st := p.view.statsFor(s.cfg.TopK)
	writeJSON(w, http.StatusOK, statsResponse{
		Vertices:      len(p.view.labels),
		Edges:         p.lab.Edges,
		Components:    p.view.components,
		Epoch:         p.epoch,
		Algorithm:     p.lab.Algorithm,
		Source:        p.lab.Source,
		LoadMS:        float64(p.lab.LoadTime.Microseconds()) / 1000,
		LabelMS:       float64(p.lab.LabelTime.Microseconds()) / 1000,
		UptimeSec:     time.Since(p.since).Seconds(),
		TopComponents: st.top,
		SizeHistogram: st.hist,
	})
}

// healthzResponse answers /v1/healthz.
type healthzResponse struct {
	Status string `json:"status"`
}

// serveHealthz is the readiness gate: 503 while the labeling is computing,
// 200 after Publish. Deliberately not observed — load balancers poll it and
// would drown the query histograms.
func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	if s.pub.Load() == nil {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, healthzResponse{Status: "loading"})
		return
	}
	writeJSON(w, http.StatusOK, healthzResponse{Status: "ok"})
}
