package obs

import "sync/atomic"

// internedPhases maps each known phase name to a stable *string so Progress
// can publish the current phase with one pointer store, no allocation.
var internedPhases = func() map[string]*string {
	names := []string{
		PhaseSetup, PhaseInit, PhaseBFSPre, PhaseBFSPhase1, PhaseBFSPhase2,
		PhaseBFSMain, PhaseBFSSparse, PhaseBFSDense, PhaseFilterEdges,
		PhaseContract, PhaseMeasure,
	}
	m := make(map[string]*string, len(names))
	for _, n := range names {
		s := n
		m[n] = &s
	}
	return m
}()

// Progress is a Recorder exposing the engine's current position — run,
// level, round, phase — through plain atomics, so a concurrent reader (the
// /debug/parconn handler) never takes a lock the coordinator could be
// holding and never blocks an event emission. Individual fields are each
// consistent; a Snapshot taken mid-level may pair a new level with the
// previous phase, which is fine for a liveness display.
type Progress struct {
	runsStarted atomic.Int64
	runsDone    atomic.Int64
	errors      atomic.Int64

	algorithm atomic.Pointer[string]
	vertices  atomic.Int64
	edges     atomic.Int64
	procs     atomic.Int64

	level         atomic.Int64
	levelVertices atomic.Int64
	levelEdges    atomic.Int64
	round         atomic.Int64
	frontier      atomic.Int64
	phase         atomic.Pointer[string]

	components atomic.Int64 // of the last completed run
	lastRunNS  atomic.Int64
	lastErr    atomic.Pointer[string]
}

// NewProgress returns an empty Progress sink.
func NewProgress() *Progress { return &Progress{} }

func (p *Progress) RunStart(e RunStart) {
	p.runsStarted.Add(1)
	alg := e.Algorithm
	p.algorithm.Store(&alg)
	p.vertices.Store(int64(e.Vertices))
	p.edges.Store(e.Edges)
	p.procs.Store(int64(e.Procs))
	p.level.Store(-1)
	p.round.Store(-1)
	p.frontier.Store(0)
	p.phase.Store(nil)
}

func (p *Progress) RunEnd(e RunEnd) {
	p.runsDone.Add(1)
	p.components.Store(int64(e.Components))
	p.lastRunNS.Store(int64(e.Duration))
	if e.Err != "" {
		p.errors.Add(1)
		msg := e.Err
		p.lastErr.Store(&msg)
	}
}

func (p *Progress) LevelStart(e LevelStart) {
	p.level.Store(int64(e.Level))
	p.levelVertices.Store(int64(e.Vertices))
	p.levelEdges.Store(e.EdgesIn)
	p.round.Store(-1)
}

func (p *Progress) LevelEnd(e LevelEnd) {
	// RELABELUP returns through the levels in reverse; report the level the
	// coordinator is actually at.
	p.level.Store(int64(e.Level))
}

func (p *Progress) Round(e Round) {
	p.round.Store(int64(e.Round))
	p.frontier.Store(int64(e.Frontier))
}

func (p *Progress) Phase(e Phase) {
	if s := internedPhases[e.Name]; s != nil {
		p.phase.Store(s)
		return
	}
	name := e.Name
	p.phase.Store(&name)
}

func (p *Progress) Counter(Counter) {}

// ProgressSnapshot is the JSON shape of a Progress read.
type ProgressSnapshot struct {
	RunsStarted int64  `json:"runs_started"`
	RunsDone    int64  `json:"runs_done"`
	Running     bool   `json:"running"`
	Errors      int64  `json:"errors,omitempty"`
	Algorithm   string `json:"algorithm,omitempty"`
	Vertices    int64  `json:"vertices,omitempty"`
	Edges       int64  `json:"edges,omitempty"`
	Procs       int64  `json:"procs,omitempty"`
	Level       int64  `json:"level"`          // -1 before the first level
	LevelVerts  int64  `json:"level_vertices"` // vertices entering the level
	LevelEdges  int64  `json:"level_edges"`    // directed edges entering the level
	Round       int64  `json:"round"`          // -1 before the first round of the level
	Frontier    int64  `json:"frontier"`
	Phase       string `json:"phase,omitempty"` // last completed phase section
	Components  int64  `json:"components,omitempty"`
	LastRunNS   int64  `json:"last_run_ns,omitempty"`
	LastErr     string `json:"last_err,omitempty"`
}

// Snapshot reads the current position. Safe to call at any time from any
// goroutine; never blocks the coordinator.
func (p *Progress) Snapshot() ProgressSnapshot {
	// Done is read before started: both only grow and started >= done at
	// every instant, so this order keeps RunsDone <= RunsStarted even when
	// runs finish between the two loads.
	done := p.runsDone.Load()
	s := ProgressSnapshot{
		RunsStarted: p.runsStarted.Load(),
		RunsDone:    done,
		Errors:      p.errors.Load(),
		Vertices:    p.vertices.Load(),
		Edges:       p.edges.Load(),
		Procs:       p.procs.Load(),
		Level:       p.level.Load(),
		LevelVerts:  p.levelVertices.Load(),
		LevelEdges:  p.levelEdges.Load(),
		Round:       p.round.Load(),
		Frontier:    p.frontier.Load(),
		Components:  p.components.Load(),
		LastRunNS:   p.lastRunNS.Load(),
	}
	s.Running = s.RunsStarted > s.RunsDone
	if a := p.algorithm.Load(); a != nil {
		s.Algorithm = *a
	}
	if ph := p.phase.Load(); ph != nil {
		s.Phase = *ph
	}
	if e := p.lastErr.Load(); e != nil {
		s.LastErr = *e
	}
	return s
}
