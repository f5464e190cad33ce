package metrics

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"parconn/internal/obs"
)

// scrape renders r and parses it back into a series map.
func scrape(t *testing.T, r *Registry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func phaseKey(name string) string { return `parconn_phase_seconds_total{phase="` + name + `"}` }

// TestEngineRecorderSeries drives one event of every listed phase and
// counter, plus one run with one level and one round, and requires each
// engine series to be present at zero before and non-zero after.
func TestEngineRecorderSeries(t *testing.T) {
	r := New()
	e := NewEngineRecorder(r)
	scalars := []string{
		"parconn_runs_total", "parconn_run_errors_total", "parconn_run_seconds_total",
		"parconn_components", "parconn_levels_total", "parconn_rounds_total",
		"parconn_cas_retries_total",
	}
	var keys []string
	keys = append(keys, scalars...)
	for _, name := range obs.PhaseNames {
		keys = append(keys, phaseKey(name))
	}
	for _, name := range obs.CounterNames {
		keys = append(keys, "parconn_"+name+"_total")
	}

	before := scrape(t, r)
	for _, k := range keys {
		if v, ok := before[k]; !ok || v != 0 {
			t.Errorf("before any run: %s = %v (present %v), want 0", k, v, ok)
		}
	}

	e.RunStart(obs.RunStart{Algorithm: "decomp-arb-hybrid", Vertices: 10, Edges: 18})
	e.LevelStart(obs.LevelStart{Level: 0, Vertices: 10, EdgesIn: 18})
	e.Round(obs.Round{Level: 0, Frontier: 2, CASRetries: 1})
	for _, name := range obs.PhaseNames {
		e.Phase(obs.Phase{Level: 0, Name: name, Duration: time.Millisecond})
	}
	e.Phase(obs.Phase{Name: "not_a_phase", Duration: time.Millisecond}) // dropped
	e.LevelEnd(obs.LevelEnd{Level: 0, Vertices: 10, EdgesIn: 18, Components: 3, Rounds: 1, CASRetries: 1})
	for _, name := range obs.CounterNames {
		e.Counter(obs.Counter{Name: name, Value: 7})
	}
	e.RunEnd(obs.RunEnd{Components: 3, Duration: 10 * time.Millisecond, Err: "boom"})

	after := scrape(t, r)
	for _, k := range keys {
		if after[k] == 0 {
			t.Errorf("after one run: %s = 0", k)
		}
	}
	if got := after[phaseKey(obs.PhaseContract)]; got != 1e-3 {
		t.Errorf("contract seconds %v, want 0.001", got)
	}
	if got := after["parconn_components"]; got != 3 {
		t.Errorf("components %v, want 3", got)
	}
	if _, ok := after[phaseKey("not_a_phase")]; ok {
		t.Error("unlisted phase registered a series")
	}
}

// TestEngineRecorderConcurrentRuns drives runs from two goroutines through
// one shared recorder and checks the cumulative counters sum both exactly
// (the race detector guards the rest).
func TestEngineRecorderConcurrentRuns(t *testing.T) {
	r := New()
	e := NewEngineRecorder(r)
	const runsPerWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runsPerWorker; i++ {
				e.RunStart(obs.RunStart{Vertices: 10})
				e.Round(obs.Round{Frontier: 2})
				e.Phase(obs.Phase{Name: obs.PhaseInit, Duration: time.Microsecond})
				e.LevelEnd(obs.LevelEnd{Level: 0, CASRetries: 2})
				e.LevelEnd(obs.LevelEnd{Level: 1})
				e.Counter(obs.Counter{Name: obs.CounterPoolJoins, Value: 3})
				e.RunEnd(obs.RunEnd{Components: 1, Duration: time.Microsecond})
			}
		}()
	}
	wg.Wait()
	got := scrape(t, r)
	const runs = 2 * runsPerWorker
	want := map[string]float64{
		"parconn_runs_total":               runs,
		"parconn_rounds_total":             runs,
		"parconn_levels_total":             2 * runs,
		"parconn_cas_retries_total":        2 * runs,
		"parconn_pool_worker_joins_total":  3 * runs,
		"parconn_run_errors_total":         0,
		"parconn_run_seconds_total":        5e-5,
		phaseKey(obs.PhaseInit):            5e-5,
		phaseKey(obs.PhaseContract):        0,
		"parconn_arena_reused_bytes_total": 0,
		"parconn_components":               1,
		"parconn_arena_alloc_bytes_total":  0,
	}
	for k, w := range want {
		if v := got[k]; v != w {
			t.Errorf("%s = %v, want %v", k, v, w)
		}
	}
}
