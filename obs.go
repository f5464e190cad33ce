package parconn

import (
	"io"
	"time"

	"parconn/internal/obs"
)

// This file is the public face of the observability layer (internal/obs):
// type aliases so external callers can implement Recorder or consume events
// without importing an internal package, plus constructors for the shipped
// sinks.

// Recorder receives the structured event stream of connectivity runs: one
// RunStart/RunEnd pair per ConnectedComponents call, LevelStart/LevelEnd per
// contraction level, Round per BFS round, Phase per timed section, and
// Counter for run-level totals (arena bytes reused/allocated, pool worker
// joins). Attach one via Options.Recorder; nil disables all instrumentation
// at the cost of one pointer test per site. Methods are invoked only by the
// run's coordinating goroutine, between parallel sections.
type Recorder = obs.Recorder

// Event types delivered to a Recorder; see the field docs in internal/obs.
type (
	RunStart   = obs.RunStart
	RunEnd     = obs.RunEnd
	LevelStart = obs.LevelStart
	LevelEnd   = obs.LevelEnd
	Round      = obs.Round
	Phase      = obs.Phase
	Counter    = obs.Counter
)

// Span is one sampled request through the serving stack (request plane):
// trace ID, endpoint, status, latency, batch size, and — for inserts — the
// incremental epoch the request published. Spans ride the same JSONL
// encoding as run-plane events under the "span" kind tag.
type Span = obs.Span

// SpanRecorder is the sink extension receiving request spans; JSONLRecorder
// and FlightRecorder implement it.
type SpanRecorder = obs.SpanRecorder

// Trace is the in-memory Recorder: it stores every event in arrival order
// and can re-emit them as JSONL. Phases, LevelEnds and Rounds filter it by
// kind: the per-phase breakdown of Figures 5-7 and the per-level edge counts
// of Figure 4.
type Trace = obs.Trace

// NewTrace returns an empty in-memory trace recorder.
func NewTrace() *Trace { return obs.NewTrace() }

// JSONLRecorder streams events to an io.Writer as JSON lines (one object
// per event, tagged with an "ev" kind field). Call Flush before closing the
// underlying writer.
type JSONLRecorder = obs.JSONLWriter

// NewJSONLRecorder returns a recorder streaming JSONL to w.
func NewJSONLRecorder(w io.Writer) *JSONLRecorder { return obs.NewJSONLWriter(w) }

// MultiRecorder fans events out to every non-nil recorder, returning nil
// when all are nil.
func MultiRecorder(recs ...Recorder) Recorder { return obs.Multi(recs...) }

// FlightRecorder retains the most recent events in a bounded ring for live
// or post-mortem inspection of a long run's tail.
type FlightRecorder = obs.FlightRecorder

// NewFlightRecorder returns a recorder retaining the last n events (n <= 0
// selects the default capacity).
func NewFlightRecorder(n int) *FlightRecorder { return obs.NewFlightRecorder(n) }

// Env records the execution environment a trace was captured in; traces
// from mismatched environments are not directly comparable.
type Env = obs.Env

// CaptureEnv reads the current process environment (go version, GOMAXPROCS,
// CPU count, OS/arch).
func CaptureEnv() Env { return obs.CaptureEnv() }

// TraceEvent is one parsed trace record: the JSONL kind tag plus the
// concrete event struct (RunStart, Round, ...) by value.
type TraceEvent = obs.Event

// ParseTrace decodes a JSONL trace stream (as written by JSONLRecorder or
// Trace.WriteJSONL) back into typed events.
func ParseTrace(r io.Reader) ([]TraceEvent, error) { return obs.ParseJSONL(r) }

// TraceSummary aggregates a validated trace (counts per event kind).
type TraceSummary = obs.Summary

// ValidateTrace parses a JSONL trace stream and checks its structural
// invariants: run/level bracketing, monotonically non-increasing per-level
// edge counts (the paper's geometric-decay direction), non-negative counts
// and durations, and known phase/counter names.
func ValidateTrace(r io.Reader) (TraceSummary, error) { return obs.ValidateJSONL(r) }

// ValidateTraceEvents checks the same invariants on already-parsed events
// (e.g. a Trace's Events slice re-parsed from JSONL).
func ValidateTraceEvents(events []obs.Event) (TraceSummary, error) { return obs.Validate(events) }

// now is the single clock read for run timing in this package; the
// stopwatch is diagnostic instrumentation, not algorithmic state.
func now() time.Time {
	return time.Now() //parconn:allow norand run-duration stopwatch only; algorithmic randomness comes from injected seeds
}

// countComponents counts the roots of a canonical labeling (labels[v] == v
// exactly once per component; every algorithm here returns canonical
// labelings, see VerifyLabeling).
func countComponents(labels []int32) int {
	n := 0
	for v, l := range labels {
		if int(l) == v {
			n++
		}
	}
	return n
}
