// Package obshttp is the live read side of the observability layer: a
// debug HTTP server exposing the engine's cumulative metrics and its
// flight-recorder tail while a run executes, alongside the
// stdlib's pprof endpoints. Attach a State's Recorder to a run
// (Options.Recorder) and mount its Handler:
//
//	state := obshttp.NewState("cmd/connect", 0)
//	srv, err := obshttp.Serve(":6060", state)
//	...
//	parconn.ConnectedComponents(g, parconn.Options{Recorder: state.Recorder()})
//
// Endpoints:
//
//	/metrics        Prometheus text exposition of the State's metrics
//	                registry: engine series (runs, levels, rounds, per-phase
//	                seconds, counters; see metrics.EngineRecorder), runtime
//	                series, and whatever the command adds
//	/debug/parconn  JSON snapshot: tool, environment, and recent events
//	                (flight tail; its newest events show where a live run
//	                is: run, level, round, frontier, phase)
//	/debug/pprof/   CPU/heap/goroutine profiles; the coordinating
//	                goroutine's samples are labelled parconn_level/
//	                parconn_phase (pool workers' are not)
//
// Everything here reads through atomics or sink-internal locks, so a
// snapshot request never blocks the run's coordinating goroutine.
package obshttp

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"parconn/internal/obs"
	"parconn/internal/obs/metrics"
)

// State bundles the read-side sinks one process exposes: the
// flight-recorder tail and the Prometheus-text metrics registry served
// at /metrics. One State serves any number of sequential or concurrent
// runs.
type State struct {
	Flight *obs.FlightRecorder
	// Metrics is the process metrics registry, pre-seeded with the engine
	// series fed by Recorder and with runtime series (goroutines, heap, GC),
	// and exposed at /metrics on Handler's
	// mux. Embedding commands register their own series in it (e.g.
	// serve.NewObserver for the request plane).
	Metrics *metrics.Registry

	tool string
	env  obs.Env
	rec  obs.Recorder
}

// NewState builds the sink bundle. tool names the embedding program in the
// snapshot; flightCap bounds the flight-recorder ring (0 means the default).
func NewState(tool string, flightCap int) *State {
	s := &State{
		Flight:  obs.NewFlightRecorder(flightCap),
		Metrics: metrics.New(),
		tool:    tool,
		env:     obs.CaptureEnv(),
	}
	metrics.RegisterRuntime(s.Metrics)
	s.rec = obs.Multi(s.Flight, metrics.NewEngineRecorder(s.Metrics))
	return s
}

// Recorder returns the Recorder that feeds every sink in the bundle. Pass
// it (possibly through obs.Multi with other sinks) as the run's Recorder.
func (s *State) Recorder() obs.Recorder { return s.rec }

// Snapshot is the JSON document served at /debug/parconn.
type Snapshot struct {
	Tool   string         `json:"tool,omitempty"`
	Env    obs.Env        `json:"env"`
	Flight FlightSnapshot `json:"flight"`
}

// FlightSnapshot is the flight-recorder tail in JSONL event encoding.
type FlightSnapshot struct {
	Dropped int64             `json:"dropped"` // events older than the ring
	Events  []json.RawMessage `json:"events,omitempty"`
}

// Snapshot collects the current state of every sink.
func (s *State) Snapshot() (Snapshot, error) {
	events, dropped := s.Flight.Snapshot()
	fs := FlightSnapshot{Dropped: dropped, Events: make([]json.RawMessage, 0, len(events))}
	var buf []byte
	for _, ev := range events {
		var err error
		buf, err = obs.AppendRecord(nil, ev.Kind, ev.V)
		if err != nil {
			return Snapshot{}, err
		}
		// AppendRecord terminates with a newline; RawMessage wants bare JSON.
		fs.Events = append(fs.Events, json.RawMessage(buf[:len(buf)-1]))
	}
	return Snapshot{
		Tool:   s.tool,
		Env:    s.env,
		Flight: fs,
	}, nil
}

// serveSnapshot handles GET /debug/parconn.
func (s *State) serveSnapshot(w http.ResponseWriter, r *http.Request) {
	snap, err := s.Snapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// Handler returns the debug mux: /metrics, /debug/parconn, /debug/pprof.
func (s *State) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.Metrics.Handler())
	mux.HandleFunc("/debug/parconn", s.serveSnapshot)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("parconn debug server\n\n/metrics\n/debug/parconn\n/debug/pprof/\n"))
	})
	return mux
}

// Server is a handle on a running HTTP server started by Serve or
// ServeHandler: the bound address (useful with ":0") and a graceful
// shutdown path. The embedding command is expected to call Shutdown (or
// Close) before exiting so in-flight requests drain instead of being cut
// mid-response.
type Server struct {
	addr net.Addr
	srv  *http.Server
	done chan struct{} // closed when the serve loop returns
}

// Addr returns the listener's bound address.
func (s *Server) Addr() net.Addr { return s.addr }

// Shutdown stops accepting new connections and waits for in-flight
// requests to complete, up to ctx's deadline. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	select {
	case <-s.done:
	case <-ctx.Done():
	}
	return err
}

// Close drops the listener and every active connection immediately. Prefer
// Shutdown; Close is the abandon-ship path.
func (s *Server) Close() error { return s.srv.Close() }

// ServeHandler listens on addr and serves h in a background goroutine.
// The server carries header/idle timeouts so an idle or slow-header client
// (slowloris) cannot pin a connection forever; there is no ReadTimeout or
// WriteTimeout because the debug endpoints legitimately stream for long
// windows (/debug/pprof/profile, /debug/pprof/trace).
func ServeHandler(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	s := &Server{addr: ln.Addr(), srv: srv, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		srv.Serve(ln)
	}()
	return s, nil
}

// Serve listens on addr and serves the debug handler in a background
// goroutine.
func Serve(addr string, s *State) (*Server, error) {
	return ServeHandler(addr, s.Handler())
}
