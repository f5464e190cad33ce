// Package obs is the structured observability layer of the connectivity
// engine: a Recorder interface receiving per-run, per-level, per-round, and
// per-phase events from the decomposition recursion, plus the sinks that
// consume it in-process: an in-memory Trace, a JSON-lines writer and a
// FlightRecorder ring, whose newest events show where a live run is. The
// cumulative /metrics series are a Recorder in internal/obs/metrics. The paper's whole evaluation (§5,
// Figures 3-7) is built on exactly these measurements — frontier sizes, cut
// fractions, phase breakdowns, geometric edge decay across contraction
// levels — so the event stream is both the bench harness's data source and
// the production debugging surface.
//
// Contract. A nil Recorder means "disabled" and every instrumentation site
// guards with one pointer comparison, so observability costs nothing when
// off (BenchmarkCCAllocs guards the allocation budget of the nil path).
// Recorder methods are invoked only by the coordinating goroutine of a run,
// between parallel sections — never from inside a parallel loop body. Code
// that wants per-worker measurements (CAS retry counts, for example)
// accumulates them in a ShardedInt64 and emits the total from the
// coordinator; cmd/parconnvet's obsrecorder check enforces this. Sinks
// therefore need no internal locking for correctness within one run, but
// the provided sinks lock anyway so distinct concurrent runs may share one.
//
// The package is zero-dependency (stdlib only) and deliberately knows
// nothing about graphs: events carry plain counts and durations.
package obs

import "time"

// A Recorder receives the event stream of connectivity runs. Implementations
// must tolerate events arriving without a surrounding RunStart/RunEnd pair
// (a standalone decomposition emits only rounds and phases). Methods are
// called from one goroutine per run; a Recorder shared by concurrent runs
// must serialize internally (the sinks in this package do).
type Recorder interface {
	// RunStart opens one connectivity run.
	RunStart(RunStart)
	// RunEnd closes the run opened by the last RunStart.
	RunEnd(RunEnd)
	// LevelStart opens one level of the contraction recursion.
	LevelStart(LevelStart)
	// LevelEnd closes a level's own work (decomposition + contraction; the
	// deeper levels' events arrive after it, relabeling is charged to the
	// level's contract phase).
	LevelEnd(LevelEnd)
	// Round reports one completed BFS round of a decomposition.
	Round(Round)
	// Phase reports one timed phase section; durations for the same
	// (level, name) accumulate across rounds.
	Phase(Phase)
	// Counter reports a named cumulative count (arena bytes, pool joins).
	Counter(Counter)
}

// Event kind names, as written to the "ev" field of the JSONL encoding.
const (
	KindMeta       = "meta"
	KindRunStart   = "run_start"
	KindRunEnd     = "run_end"
	KindLevelStart = "level_start"
	KindLevelEnd   = "level_end"
	KindRound      = "round"
	KindPhase      = "phase"
	KindCounter    = "counter"
)

// Phase names emitted by the engine, matching the paper's Figures 5-7
// breakdown categories.
const (
	PhaseSetup       = "setup"        // working-graph copy before level 0
	PhaseInit        = "init"         // permutations, shifts, array init
	PhaseBFSPre      = "bfs_pre"      // adding new centers to the frontier
	PhaseBFSPhase1   = "bfs_phase1"   // Decomp-Min writeMin marking pass
	PhaseBFSPhase2   = "bfs_phase2"   // Decomp-Min CAS claiming pass
	PhaseBFSMain     = "bfs_main"     // Decomp-Arb single pass
	PhaseBFSSparse   = "bfs_sparse"   // ArbHybrid write-based rounds
	PhaseBFSDense    = "bfs_dense"    // ArbHybrid read-based rounds
	PhaseFilterEdges = "filter_edges" // ArbHybrid edge classification pass
	PhaseContract    = "contract"     // contraction + relabeling
	PhaseMeasure     = "measure"      // per-level edge reductions done only for observability
)

// Counter names emitted by the engine: end-of-run totals, and the per-level
// CounterHashedPairs.
const (
	CounterArenaReused = "arena_reused_bytes" // scratch bytes served from the arena free lists
	CounterArenaAlloc  = "arena_alloc_bytes"  // scratch bytes freshly allocated
	CounterPoolJoins   = "pool_worker_joins"  // pool helpers that joined parallel sections
	// CounterHashedPairs is emitted once per contracted level, before its
	// level_end: the pairs that level sent through the hash dedup pre-pass
	// (0 when its sample showed too few repeats to hash).
	CounterHashedPairs = "contract_hashed_pairs"
)

// PhaseNames lists every phase the engine emits. Validate accepts exactly
// these, and the metrics recorder registers one series per entry, so a
// phase a trace may carry is never missing from /metrics.
var PhaseNames = []string{
	PhaseSetup, PhaseInit, PhaseBFSPre, PhaseBFSPhase1, PhaseBFSPhase2, PhaseBFSMain,
	PhaseBFSSparse, PhaseBFSDense, PhaseFilterEdges, PhaseContract, PhaseMeasure,
}

// CounterNames lists every counter the engine emits, with the same role as
// PhaseNames.
var CounterNames = []string{CounterArenaReused, CounterArenaAlloc, CounterPoolJoins, CounterHashedPairs}

// RunStart describes a connectivity run about to execute.
type RunStart struct {
	Algorithm string  `json:"algorithm"`
	Vertices  int     `json:"vertices"`
	Edges     int64   `json:"edges"` // directed edge count (2x undirected)
	Procs     int     `json:"procs"`
	Seed      uint64  `json:"seed"`
	Beta      float64 `json:"beta,omitempty"` // effective beta; 0 for non-decomposition algorithms
	Env       *Env    `json:"env,omitempty"`  // capture environment; nil in minimal emissions
}

// RunEnd closes a run.
type RunEnd struct {
	Components int           `json:"components"` // number of labels; 0 when the run failed
	Duration   time.Duration `json:"duration_ns"`
	Err        string        `json:"err,omitempty"`
}

// LevelStart describes one recursion level about to decompose.
type LevelStart struct {
	Level    int   `json:"level"`
	Vertices int   `json:"vertices"`
	EdgesIn  int64 `json:"edges_in"` // directed live edges entering the level
}

// LevelEnd describes a completed recursion level (the paper's Figure 4 rows).
type LevelEnd struct {
	Level      int   `json:"level"`
	Vertices   int   `json:"vertices"`
	EdgesIn    int64 `json:"edges_in"`
	EdgesCut   int64 `json:"edges_cut"`   // directed inter-partition edges after decomposition
	EdgesOut   int64 `json:"edges_out"`   // directed edges passed to the next level (post dedup)
	Components int   `json:"components"`  // partitions produced by the decomposition
	Rounds     int   `json:"rounds"`      // BFS rounds executed
	CASRetries int64 `json:"cas_retries"` // lost CAS/writeMin races during the decomposition
}

// Round describes one completed BFS round of a decomposition.
type Round struct {
	Level      int           `json:"level"`
	Round      int           `json:"round"` // shift-schedule round number (idle rounds are skipped; -1 reports the vertices settled at level entry)
	Frontier   int           `json:"frontier"`
	NewCenters int           `json:"new_centers"`
	Dense      bool          `json:"dense,omitempty"` // ArbHybrid chose the read-based pass
	Duration   time.Duration `json:"duration_ns"`
	CASRetries int64         `json:"cas_retries"`
}

// Phase is one timed section of the engine.
type Phase struct {
	Level    int           `json:"level"`
	Name     string        `json:"name"`
	Duration time.Duration `json:"duration_ns"`
}

// Counter is a named count accumulated over a run.
type Counter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Nop is a Recorder that ignores every event. Embed it to implement only
// the methods a sink cares about.
type Nop struct{}

func (Nop) RunStart(RunStart)     {}
func (Nop) RunEnd(RunEnd)         {}
func (Nop) LevelStart(LevelStart) {}
func (Nop) LevelEnd(LevelEnd)     {}
func (Nop) Round(Round)           {}
func (Nop) Phase(Phase)           {}
func (Nop) Counter(Counter)       {}

// Multi fans events out to every non-nil recorder in recs, in order. It
// returns nil when all are nil and the single recorder when only one is
// non-nil, preserving the nil fast path and avoiding indirection for the
// common single-sink case.
func Multi(recs ...Recorder) Recorder {
	live := make(multi, 0, len(recs))
	for _, r := range recs {
		if r != nil {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

type multi []Recorder

func (m multi) RunStart(e RunStart) {
	for _, r := range m {
		r.RunStart(e)
	}
}

func (m multi) RunEnd(e RunEnd) {
	for _, r := range m {
		r.RunEnd(e)
	}
}

func (m multi) LevelStart(e LevelStart) {
	for _, r := range m {
		r.LevelStart(e)
	}
}

func (m multi) LevelEnd(e LevelEnd) {
	for _, r := range m {
		r.LevelEnd(e)
	}
}

func (m multi) Round(e Round) {
	for _, r := range m {
		r.Round(e)
	}
}

func (m multi) Phase(e Phase) {
	for _, r := range m {
		r.Phase(e)
	}
}

func (m multi) Counter(e Counter) {
	for _, r := range m {
		r.Counter(e)
	}
}
