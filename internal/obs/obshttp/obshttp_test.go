package obshttp

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"parconn/internal/obs"
)

// drive pushes one small well-formed run through the state's recorder.
func drive(rec obs.Recorder) {
	rec.RunStart(obs.RunStart{Algorithm: "decomp-arb-hybrid-CC", Vertices: 100, Edges: 400, Procs: 2, Seed: 7, Beta: 0.2})
	rec.LevelStart(obs.LevelStart{Level: 0, Vertices: 100, EdgesIn: 400})
	rec.Round(obs.Round{Level: 0, Round: 0, Frontier: 10, NewCenters: 10, Duration: 3 * time.Microsecond})
	rec.Phase(obs.Phase{Level: 0, Name: obs.PhaseBFSSparse, Duration: 5 * time.Microsecond})
	rec.LevelEnd(obs.LevelEnd{Level: 0, Vertices: 100, EdgesIn: 400, EdgesCut: 40, EdgesOut: 20, Components: 30, Rounds: 1})
	rec.Phase(obs.Phase{Level: 0, Name: obs.PhaseContract, Duration: 2 * time.Microsecond})
	rec.RunEnd(obs.RunEnd{Components: 3, Duration: 20 * time.Microsecond})
}

// flightEvents decodes a snapshot's flight tail back into typed events. The
// snapshot's RawMessages may be re-indented, so each is compacted onto one
// JSONL line first.
func flightEvents(t *testing.T, snap Snapshot) []obs.Event {
	t.Helper()
	var buf bytes.Buffer
	for _, raw := range snap.Flight.Events {
		if err := json.Compact(&buf, raw); err != nil {
			t.Fatal(err)
		}
		buf.WriteByte('\n')
	}
	events, err := obs.ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestDebugParconnEndpoint(t *testing.T) {
	state := NewState("obshttp_test", 8)
	drive(state.Recorder())

	srv := httptest.NewServer(state.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/parconn")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type %q", ct)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Tool != "obshttp_test" || snap.Env.IsZero() {
		t.Fatalf("snapshot header %+v %+v", snap.Tool, snap.Env)
	}
	if snap.Flight.Dropped != 0 || len(snap.Flight.Events) != 7 {
		t.Fatalf("flight %d dropped, %d events", snap.Flight.Dropped, len(snap.Flight.Events))
	}
	// The finished run shows as the tail's run_end with its component count.
	events := flightEvents(t, snap)
	if end, ok := events[len(events)-1].V.(obs.RunEnd); !ok || end.Components != 3 {
		t.Fatalf("last flight event %+v, want run_end with 3 components", events[len(events)-1])
	}
	// Flight events reuse the JSONL encoding, kind-tagged (re-indented by
	// the snapshot's MarshalIndent).
	var tag struct {
		Ev string `json:"ev"`
	}
	if err := json.Unmarshal(snap.Flight.Events[0], &tag); err != nil || tag.Ev != "run_start" {
		t.Fatalf("flight event %s: tag %q err %v", snap.Flight.Events[0], tag.Ev, err)
	}
}

func TestDebugVarsAndPprofMounted(t *testing.T) {
	state := NewState("obshttp_test", 0)
	drive(state.Recorder())
	srv := httptest.NewServer(state.Handler())
	defer srv.Close()

	for _, path := range []string{"/debug/pprof/", "/"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
		if path == "/" && string(body) != "parconn debug server\n\n/metrics\n/debug/parconn\n/debug/pprof/\n" {
			t.Errorf("root page lists %q", body)
		}
	}
	resp, err := http.Get(srv.URL + "/nonexistent")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: status %d", resp.StatusCode)
	}
}

func TestServeBindsAndAnswers(t *testing.T) {
	state := NewState("obshttp_test", 0)
	srv, err := Serve("127.0.0.1:0", state)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	drive(state.Recorder())
	resp, err := http.Get("http://" + srv.Addr().String() + "/debug/parconn")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	starts := 0
	for _, ev := range flightEvents(t, snap) {
		if ev.Kind == obs.KindRunStart {
			starts++
		}
	}
	if starts != 1 {
		t.Fatalf("flight tail holds %d run_start events, want 1", starts)
	}
}

func TestSnapshotDuringLiveRun(t *testing.T) {
	// A snapshot taken mid-run (between coordinator emissions) must show the
	// in-flight position without waiting for the run to finish: the tail
	// ends with the current round, and no run_end follows the run_start.
	state := NewState("obshttp_test", 0)
	rec := state.Recorder()
	rec.RunStart(obs.RunStart{Algorithm: "decomp-arb-CC", Vertices: 10, Edges: 20})
	rec.LevelStart(obs.LevelStart{Level: 0, Vertices: 10, EdgesIn: 20})
	rec.Round(obs.Round{Level: 0, Round: 2, Frontier: 5})

	snap, err := state.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	events := flightEvents(t, snap)
	for _, ev := range events {
		if ev.Kind == obs.KindRunEnd {
			t.Fatalf("mid-run tail holds a run_end: %+v", events)
		}
	}
	last, ok := events[len(events)-1].V.(obs.Round)
	if !ok || last.Level != 0 || last.Round != 2 || last.Frontier != 5 {
		t.Fatalf("mid-run tail ends with %+v, want level-0 round 2 with frontier 5", events[len(events)-1])
	}
}

// TestShutdownDrainsInFlight starts a request that blocks inside its
// handler, initiates Shutdown concurrently, and checks that (a) the
// in-flight request completes with its full body, (b) Shutdown does not
// return before the handler finishes, and (c) new connections are refused
// once shutdown has begun.
func TestShutdownDrainsInFlight(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var inFlightDone atomic.Bool
	srv, err := ServeHandler("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		inFlightDone.Store(true)
		io.WriteString(w, "drained")
	}))
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr().String()

	type getResult struct {
		body string
		err  error
	}
	got := make(chan getResult, 1)
	go func() {
		resp, err := http.Get(base + "/")
		if err != nil {
			got <- getResult{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		got <- getResult{body: string(b), err: err}
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// Shutdown must block while the request is in flight.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !inFlightDone.Load() {
		t.Fatal("Shutdown returned before the in-flight handler finished")
	}
	r := <-got
	if r.err != nil || r.body != "drained" {
		t.Fatalf("in-flight request: body %q err %v", r.body, r.err)
	}
	// The listener is gone: a fresh connection must fail.
	c := &http.Client{Timeout: time.Second}
	if resp, err := c.Get(base + "/"); err == nil {
		resp.Body.Close()
		t.Fatal("request after Shutdown succeeded")
	}
}

// TestServeTimeoutsSet guards the slowloris fix: the server obshttp starts
// must carry header and idle timeouts.
func TestServeTimeoutsSet(t *testing.T) {
	srv, err := ServeHandler("127.0.0.1:0", http.NotFoundHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	if srv.srv.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout not set")
	}
	if srv.srv.IdleTimeout <= 0 {
		t.Error("IdleTimeout not set")
	}
}
