package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
)

// AppendRecord appends one JSONL record for (kind, event) to dst and returns
// the extended slice. The record is the event's JSON object with an "ev"
// kind tag spliced in as the first field, terminated by a newline:
//
//	{"ev":"round","level":0,"round":3,...}
func AppendRecord(dst []byte, kind string, event any) ([]byte, error) {
	body, err := json.Marshal(event)
	if err != nil {
		return dst, err
	}
	if len(body) < 2 || body[0] != '{' {
		return dst, fmt.Errorf("obs: event %T marshals to non-object %q", event, body)
	}
	dst = append(dst, `{"ev":`...)
	dst = append(dst, '"')
	dst = append(dst, kind...)
	dst = append(dst, '"')
	if body[1] != '}' { // non-empty object: splice the remaining fields
		dst = append(dst, ',')
	}
	dst = append(dst, body[1:]...)
	dst = append(dst, '\n')
	return dst, nil
}

// JSONLWriter is a Recorder that streams events to w as JSON lines. The
// first event is preceded by a "meta" header record carrying the capture
// environment (see Meta), so every trace file identifies where it was
// recorded. Errors are sticky: the first write failure is kept, subsequent
// events are dropped, and Flush reports it. Safe for use by concurrent runs.
type JSONLWriter struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	buf    []byte
	count  int64
	err    error
	tool   string
	headed bool
}

// NewJSONLWriter returns a JSONLWriter streaming to w. Call Flush before
// closing the underlying writer.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{bw: bufio.NewWriter(w)}
}

// SetTool names the writing program in the trace header (e.g.
// "cmd/connect"). It has no effect once the header is out.
func (j *JSONLWriter) SetTool(tool string) {
	j.mu.Lock()
	j.tool = tool
	j.mu.Unlock()
}

// writeLocked appends one record to the stream; callers hold j.mu.
func (j *JSONLWriter) writeLocked(kind string, event any) {
	j.buf, j.err = AppendRecord(j.buf[:0], kind, event)
	if j.err != nil {
		return
	}
	if _, err := j.bw.Write(j.buf); err != nil {
		j.err = err
	}
}

func (j *JSONLWriter) emit(kind string, event any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if !j.headed {
		j.headed = true
		j.writeLocked(KindMeta, Meta{Tool: j.tool, Env: CaptureEnv()})
		if j.err != nil {
			return
		}
	}
	j.writeLocked(kind, event)
	if j.err != nil {
		return
	}
	j.count++
}

func (j *JSONLWriter) RunStart(e RunStart)     { j.emit(KindRunStart, e) }
func (j *JSONLWriter) RunEnd(e RunEnd)         { j.emit(KindRunEnd, e) }
func (j *JSONLWriter) LevelStart(e LevelStart) { j.emit(KindLevelStart, e) }
func (j *JSONLWriter) LevelEnd(e LevelEnd)     { j.emit(KindLevelEnd, e) }
func (j *JSONLWriter) Round(e Round)           { j.emit(KindRound, e) }
func (j *JSONLWriter) Phase(e Phase)           { j.emit(KindPhase, e) }
func (j *JSONLWriter) Counter(e Counter)       { j.emit(KindCounter, e) }

// Count reports the number of records successfully written so far.
func (j *JSONLWriter) Count() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.count
}

// Flush drains the buffer and returns the first error seen, if any.
func (j *JSONLWriter) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	j.err = j.bw.Flush()
	return j.err
}

// ParseJSONL decodes a stream of JSONL trace records back into typed events.
// Unknown "ev" kinds and malformed lines are errors; blank lines are skipped.
func ParseJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var tag struct {
			Ev string `json:"ev"`
		}
		if err := json.Unmarshal(line, &tag); err != nil {
			return out, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		var (
			v   any
			err error
		)
		switch tag.Ev {
		case KindMeta:
			var e Meta
			err = json.Unmarshal(line, &e)
			v = e
		case KindRunStart:
			var e RunStart
			err = json.Unmarshal(line, &e)
			v = e
		case KindRunEnd:
			var e RunEnd
			err = json.Unmarshal(line, &e)
			v = e
		case KindLevelStart:
			var e LevelStart
			err = json.Unmarshal(line, &e)
			v = e
		case KindLevelEnd:
			var e LevelEnd
			err = json.Unmarshal(line, &e)
			v = e
		case KindRound:
			var e Round
			err = json.Unmarshal(line, &e)
			v = e
		case KindPhase:
			var e Phase
			err = json.Unmarshal(line, &e)
			v = e
		case KindCounter:
			var e Counter
			err = json.Unmarshal(line, &e)
			v = e
		case KindSpan:
			var e Span
			err = json.Unmarshal(line, &e)
			v = e
		case "":
			return out, fmt.Errorf("obs: line %d: missing \"ev\" kind tag", lineNo)
		default:
			return out, fmt.Errorf("obs: line %d: unknown event kind %q", lineNo, tag.Ev)
		}
		if err != nil {
			return out, fmt.Errorf("obs: line %d (%s): %w", lineNo, tag.Ev, err)
		}
		out = append(out, Event{Kind: tag.Ev, V: v})
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("obs: line %d: %w", lineNo+1, err)
	}
	return out, nil
}

// Summary aggregates a validated trace for human-readable reporting.
type Summary struct {
	Runs     int
	Levels   int // LevelEnd events seen
	Rounds   int
	Phases   int
	Counters int
	Spans    int // sampled request spans (request plane, outside run bracketing rules)
	Metas    int // trace header records
	Events   int
}

// Validate checks the structural invariants of a trace event stream:
//
//   - every RunEnd closes an open RunStart, runs do not nest;
//   - level_start/level_end pairs match by level number; within a run,
//     level numbers start at 0 and each new level is at most one deeper
//     than the previous (the contraction recursion is a path, not a tree);
//   - per level, edges_out <= edges_in and cut/round/retry counts are
//     non-negative; successive levels' edges_in never increase (the
//     paper's geometric-decay direction); the level's Round events count
//     every partition as a new center exactly once, so their new_centers
//     sum to the level_end's components (vertices settled at level entry
//     included, through their own Round event);
//   - durations are non-negative and phase names/counters are known.
//
// It returns a Summary of what was seen alongside the first violation.
func Validate(events []Event) (Summary, error) {
	var s Summary
	s.Events = len(events)
	inRun := false
	openLevel := -1 // level number of the unmatched LevelStart, -1 when none
	prevEdgesIn := int64(-1)
	maxLevel := -1
	centers := 0 // new_centers of the open level's Round events
	for i, ev := range events {
		switch e := ev.V.(type) {
		case Meta:
			// Headers describe the recording, not the computation; they may
			// appear wherever streams were concatenated, but never inside a
			// run's bracketing.
			if inRun {
				return s, fmt.Errorf("event %d: meta header inside an open run", i)
			}
			s.Metas++
		case RunStart:
			if inRun {
				return s, fmt.Errorf("event %d: run_start while a run is open", i)
			}
			inRun = true
			s.Runs++
			openLevel, prevEdgesIn, maxLevel = -1, -1, -1
			if e.Vertices < 0 || e.Edges < 0 {
				return s, fmt.Errorf("event %d: run_start with negative sizes", i)
			}
		case RunEnd:
			if !inRun {
				return s, fmt.Errorf("event %d: run_end without run_start", i)
			}
			if openLevel >= 0 {
				return s, fmt.Errorf("event %d: run_end with level %d still open", i, openLevel)
			}
			if e.Duration < 0 {
				return s, fmt.Errorf("event %d: run_end with negative duration", i)
			}
			inRun = false
		case LevelStart:
			if openLevel >= 0 {
				return s, fmt.Errorf("event %d: level_start %d while level %d is open", i, e.Level, openLevel)
			}
			if e.Level < 0 || e.Level > maxLevel+1 {
				return s, fmt.Errorf("event %d: level_start %d skips levels (deepest so far %d)", i, e.Level, maxLevel)
			}
			if e.Level == 0 {
				prevEdgesIn = -1 // a fresh recursion (standalone runs may repeat level 0)
			}
			if prevEdgesIn >= 0 && e.EdgesIn > prevEdgesIn {
				return s, fmt.Errorf("event %d: level %d edges_in %d exceeds previous level's %d",
					i, e.Level, e.EdgesIn, prevEdgesIn)
			}
			prevEdgesIn = e.EdgesIn
			maxLevel = max(maxLevel, e.Level)
			openLevel = e.Level
			centers = 0
		case LevelEnd:
			if openLevel != e.Level {
				return s, fmt.Errorf("event %d: level_end %d does not match open level %d", i, e.Level, openLevel)
			}
			// The decomposition cuts a subset of the entering edges, and
			// contraction only removes pairs from the cut.
			if e.EdgesCut > e.EdgesIn {
				return s, fmt.Errorf("event %d: level %d edges_cut %d exceeds edges_in %d",
					i, e.Level, e.EdgesCut, e.EdgesIn)
			}
			if e.EdgesOut > e.EdgesCut {
				return s, fmt.Errorf("event %d: level %d edges_out %d exceeds edges_cut %d",
					i, e.Level, e.EdgesOut, e.EdgesCut)
			}
			if e.EdgesCut < 0 || e.EdgesOut < 0 || e.Rounds < 0 || e.CASRetries < 0 {
				return s, fmt.Errorf("event %d: level %d has negative counts", i, e.Level)
			}
			if centers != e.Components {
				return s, fmt.Errorf("event %d: level %d rounds report %d new centers, level_end %d components",
					i, e.Level, centers, e.Components)
			}
			openLevel = -1
			s.Levels++
		case Round:
			if e.Frontier < 0 || e.NewCenters < 0 || e.CASRetries < 0 || e.Duration < 0 {
				return s, fmt.Errorf("event %d: round with negative fields", i)
			}
			// Standalone decompositions emit rounds outside any level.
			if openLevel >= 0 && e.Level == openLevel {
				centers += e.NewCenters
			}
			s.Rounds++
		case Phase:
			if !slices.Contains(PhaseNames, e.Name) {
				return s, fmt.Errorf("event %d: unknown phase %q", i, e.Name)
			}
			if e.Duration < 0 {
				return s, fmt.Errorf("event %d: phase %s with negative duration", i, e.Name)
			}
			s.Phases++
		case Counter:
			if !slices.Contains(CounterNames, e.Name) {
				return s, fmt.Errorf("event %d: unknown counter %q", i, e.Name)
			}
			if e.Value < 0 {
				return s, fmt.Errorf("event %d: counter %s negative", i, e.Name)
			}
			s.Counters++
		case Span:
			// Spans come from the request plane, which runs concurrently with
			// (and independently of) the engine's run bracketing, so they may
			// appear anywhere in the stream.
			if e.Endpoint == "" {
				return s, fmt.Errorf("event %d: span without endpoint", i)
			}
			if e.Status < 100 || e.Status > 599 {
				return s, fmt.Errorf("event %d: span with status %d outside [100, 599]", i, e.Status)
			}
			if e.Duration < 0 {
				return s, fmt.Errorf("event %d: span with negative duration", i)
			}
			s.Spans++
		default:
			return s, fmt.Errorf("event %d: unknown event type %T", i, ev.V)
		}
	}
	if inRun {
		return s, fmt.Errorf("trace ends with a run still open")
	}
	if openLevel >= 0 {
		return s, fmt.Errorf("trace ends with level %d still open", openLevel)
	}
	return s, nil
}

// ValidateJSONL parses and validates a JSONL trace stream in one call.
func ValidateJSONL(r io.Reader) (Summary, error) {
	events, err := ParseJSONL(r)
	if err != nil {
		return Summary{Events: len(events)}, err
	}
	return Validate(events)
}
