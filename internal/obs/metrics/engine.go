package metrics

import "parconn/internal/obs"

// EngineRecorder is the obs.Recorder that folds connectivity runs into a
// Registry as cumulative series:
//
//	parconn_runs_total                    runs started
//	parconn_run_errors_total              runs that returned an error
//	parconn_run_seconds_total             wall time of finished runs
//	parconn_components                    components found by the last run
//	parconn_levels_total                  contraction levels completed
//	parconn_rounds_total                  BFS rounds completed
//	parconn_cas_retries_total             lost CAS/writeMin races
//	parconn_phase_seconds_total{phase}    engine time per phase
//	parconn_<counter>_total               each engine counter, summed
//
// NewEngineRecorder registers every series up front, one per entry of
// obs.PhaseNames and obs.CounterNames, so a scrape before the first run
// already lists them at zero and the event methods only update handles:
// they never register and never lock. Names outside those lists are
// dropped. Every handle is an atomic, so concurrent runs may share one
// recorder.
type EngineRecorder struct {
	obs.Nop

	runs, runErrors, runNS     *Counter
	levels, rounds, casRetries *Counter
	components                 *Gauge

	// Fixed at construction and only read afterwards.
	phaseNS  map[string]*Counter
	counters map[string]*Counter
}

// NewEngineRecorder registers the engine series in r and returns the
// recorder feeding them.
func NewEngineRecorder(r *Registry) *EngineRecorder {
	e := &EngineRecorder{
		runs:       r.Counter("parconn_runs_total", "Connectivity runs started.", nil),
		runErrors:  r.Counter("parconn_run_errors_total", "Connectivity runs that returned an error.", nil),
		runNS:      nsCounter(r, "parconn_run_seconds_total", "Cumulative wall time of finished connectivity runs.", nil),
		components: r.Gauge("parconn_components", "Components found by the last finished run.", nil),
		levels:     r.Counter("parconn_levels_total", "Contraction levels completed.", nil),
		rounds:     r.Counter("parconn_rounds_total", "BFS rounds completed.", nil),
		casRetries: r.Counter("parconn_cas_retries_total", "Lost CAS/writeMin races during decompositions.", nil),
		phaseNS:    make(map[string]*Counter, len(obs.PhaseNames)),
		counters:   make(map[string]*Counter, len(obs.CounterNames)),
	}
	for _, name := range obs.PhaseNames {
		e.phaseNS[name] = nsCounter(r, "parconn_phase_seconds_total", "Cumulative engine time per phase.", L("phase", name))
	}
	for _, name := range obs.CounterNames {
		e.counters[name] = r.Counter("parconn_"+name+"_total", "Engine counter "+name+", summed over runs.", nil)
	}
	return e
}

// nsCounter registers a counter exposed in seconds and returns the
// nanosecond handle feeding it.
func nsCounter(r *Registry, name, help string, ls Labels) *Counter {
	c := &Counter{}
	r.CounterFunc(name, help, ls, func() float64 { return float64(c.Value()) / 1e9 })
	return c
}

// addPositive adds n to c, skipping the non-positive values a malformed
// event could carry (Counter.Add panics on negatives).
func addPositive(c *Counter, n int64) {
	if n > 0 {
		c.Add(n)
	}
}

func (e *EngineRecorder) RunStart(obs.RunStart) { e.runs.Inc() }

func (e *EngineRecorder) RunEnd(ev obs.RunEnd) {
	if ev.Err != "" {
		e.runErrors.Inc()
	}
	e.components.Set(float64(ev.Components))
	addPositive(e.runNS, int64(ev.Duration))
}

func (e *EngineRecorder) LevelEnd(ev obs.LevelEnd) {
	e.levels.Inc()
	addPositive(e.casRetries, ev.CASRetries)
}

func (e *EngineRecorder) Round(obs.Round) { e.rounds.Inc() }

func (e *EngineRecorder) Phase(ev obs.Phase) {
	if c := e.phaseNS[ev.Name]; c != nil {
		addPositive(c, int64(ev.Duration))
	}
}

func (e *EngineRecorder) Counter(ev obs.Counter) {
	if c := e.counters[ev.Name]; c != nil {
		addPositive(c, ev.Value)
	}
}
