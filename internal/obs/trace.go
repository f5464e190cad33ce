package obs

import (
	"io"
	"sync"
)

// Event is one recorded event with its kind tag, as stored by Trace.
// V holds the concrete event struct (RunStart, Round, ...) by value.
type Event struct {
	Kind string
	V    any
}

// Trace is an in-memory Recorder that stores every event in arrival order.
// Its kind filters (LevelEnds, Rounds, Phases, Counters) are the read side
// of the bench harness's per-level and per-phase tables.
type Trace struct {
	mu     sync.Mutex
	events []Event
}

// NewTrace returns an empty Trace.
func NewTrace() *Trace { return &Trace{} }

func (t *Trace) add(kind string, v any) {
	t.mu.Lock()
	t.events = append(t.events, Event{Kind: kind, V: v})
	t.mu.Unlock()
}

func (t *Trace) RunStart(e RunStart)     { t.add(KindRunStart, e) }
func (t *Trace) RunEnd(e RunEnd)         { t.add(KindRunEnd, e) }
func (t *Trace) LevelStart(e LevelStart) { t.add(KindLevelStart, e) }
func (t *Trace) LevelEnd(e LevelEnd)     { t.add(KindLevelEnd, e) }
func (t *Trace) Round(e Round)           { t.add(KindRound, e) }
func (t *Trace) Phase(e Phase)           { t.add(KindPhase, e) }
func (t *Trace) Counter(e Counter)       { t.add(KindCounter, e) }

// Events returns a copy of the recorded events in arrival order.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Len reports the number of recorded events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Reset discards all recorded events, keeping the backing storage.
func (t *Trace) Reset() {
	t.mu.Lock()
	t.events = t.events[:0]
	t.mu.Unlock()
}

// Runs returns the RunStart events in order.
func (t *Trace) Runs() []RunStart {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []RunStart
	for _, ev := range t.events {
		if e, ok := ev.V.(RunStart); ok {
			out = append(out, e)
		}
	}
	return out
}

// LevelEnds returns the LevelEnd events in order.
func (t *Trace) LevelEnds() []LevelEnd {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []LevelEnd
	for _, ev := range t.events {
		if e, ok := ev.V.(LevelEnd); ok {
			out = append(out, e)
		}
	}
	return out
}

// Rounds returns the Round events in order.
func (t *Trace) Rounds() []Round {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Round
	for _, ev := range t.events {
		if e, ok := ev.V.(Round); ok {
			out = append(out, e)
		}
	}
	return out
}

// Phases returns the Phase events in order.
func (t *Trace) Phases() []Phase {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Phase
	for _, ev := range t.events {
		if e, ok := ev.V.(Phase); ok {
			out = append(out, e)
		}
	}
	return out
}

// Counters returns the Counter events in order.
func (t *Trace) Counters() []Counter {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Counter
	for _, ev := range t.events {
		if e, ok := ev.V.(Counter); ok {
			out = append(out, e)
		}
	}
	return out
}

// WriteJSONL re-emits the recorded events as JSON lines to w, in the same
// encoding the live JSONLWriter produces.
func (t *Trace) WriteJSONL(w io.Writer) error {
	var buf []byte
	for _, ev := range t.Events() {
		var err error
		buf, err = AppendRecord(buf[:0], ev.Kind, ev.V)
		if err != nil {
			return err
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
