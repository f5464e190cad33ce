package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// emitAll drives one well-formed run through a Recorder and returns the
// events in emission order for comparison.
func emitAll(r Recorder) []Event {
	seq := []Event{
		{KindRunStart, RunStart{Algorithm: "decomp-arb", Vertices: 10, Edges: 18, Procs: 4, Seed: 42, Beta: 0.2}},
		{KindLevelStart, LevelStart{Level: 0, Vertices: 10, EdgesIn: 18}},
		{KindRound, Round{Level: 0, Round: 0, Frontier: 3, NewCenters: 3, Duration: time.Microsecond, CASRetries: 1}},
		{KindPhase, Phase{Level: 0, Name: PhaseInit, Duration: time.Microsecond}},
		{KindPhase, Phase{Level: 0, Name: PhaseBFSMain, Duration: 2 * time.Microsecond}},
		{KindLevelEnd, LevelEnd{Level: 0, Vertices: 10, EdgesIn: 18, EdgesCut: 6, EdgesOut: 4, Components: 3, Rounds: 1, CASRetries: 1}},
		{KindPhase, Phase{Level: 0, Name: PhaseContract, Duration: time.Microsecond}},
		{KindLevelStart, LevelStart{Level: 1, Vertices: 3, EdgesIn: 4}},
		{KindRound, Round{Level: 1, Round: 0, Frontier: 3, NewCenters: 3}},
		{KindLevelEnd, LevelEnd{Level: 1, Vertices: 3, EdgesIn: 4, Components: 3, Rounds: 1}},
		{KindCounter, Counter{Name: CounterArenaReused, Value: 4096}},
		{KindCounter, Counter{Name: CounterPoolJoins, Value: 3}},
		{KindRunEnd, RunEnd{Components: 3, Duration: 10 * time.Microsecond}},
	}
	for _, ev := range seq {
		switch e := ev.V.(type) {
		case RunStart:
			r.RunStart(e)
		case RunEnd:
			r.RunEnd(e)
		case LevelStart:
			r.LevelStart(e)
		case LevelEnd:
			r.LevelEnd(e)
		case Round:
			r.Round(e)
		case Phase:
			r.Phase(e)
		case Counter:
			r.Counter(e)
		}
	}
	return seq
}

func TestTraceOrderingAndFilters(t *testing.T) {
	tr := NewTrace()
	want := emitAll(tr)
	got := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("event count %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v want %+v", i, got[i], want[i])
		}
	}
	if n := tr.Len(); n != len(want) {
		t.Fatalf("Len %d want %d", n, len(want))
	}
	if rs := tr.Runs(); len(rs) != 1 || rs[0].Seed != 42 {
		t.Fatalf("Runs: %+v", rs)
	}
	if le := tr.LevelEnds(); len(le) != 2 || le[0].EdgesOut != 4 {
		t.Fatalf("LevelEnds: %+v", le)
	}
	if ph := tr.Phases(); len(ph) != 3 || ph[2].Name != PhaseContract {
		t.Fatalf("Phases: %+v", ph)
	}
	if cs := tr.Counters(); len(cs) != 2 || cs[0].Value != 4096 {
		t.Fatalf("Counters: %+v", cs)
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("Reset left events behind")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := NewTrace()
	want := emitAll(tr)

	// Trace re-emission path.
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// Live writer path: identical bytes after its meta header line.
	var live bytes.Buffer
	jw := NewJSONLWriter(&live)
	jw.SetTool("obs_test")
	emitAll(jw)
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	if jw.Count() != int64(len(want)) {
		t.Fatalf("Count %d want %d", jw.Count(), len(want))
	}
	header, rest, found := bytes.Cut(live.Bytes(), []byte("\n"))
	if !found || !bytes.HasPrefix(header, []byte(`{"ev":"meta",`)) {
		t.Fatalf("live stream does not open with a meta header: %q", header)
	}
	if !bytes.Contains(header, []byte(`"tool":"obs_test"`)) {
		t.Fatalf("header %q missing tool name", header)
	}
	if !bytes.Equal(buf.Bytes(), rest) {
		t.Fatalf("trace and live encodings differ:\n%s\n---\n%s", buf.Bytes(), rest)
	}

	parsedLive, err := ParseJSONL(bytes.NewReader(live.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsedLive) != len(want)+1 {
		t.Fatalf("parsed %d live events want %d", len(parsedLive), len(want)+1)
	}
	meta, ok := parsedLive[0].V.(Meta)
	if !ok || meta.Env.IsZero() || meta.Tool != "obs_test" {
		t.Fatalf("live header parsed as %+v", parsedLive[0])
	}
	if meta.Env != CaptureEnv() {
		t.Fatalf("header env = %+v want current env", meta.Env)
	}
	sum, err := Validate(parsedLive)
	if err != nil {
		t.Fatalf("live trace invalid: %v", err)
	}
	if sum.Metas != 1 {
		t.Fatalf("summary %+v: want 1 meta", sum)
	}

	got, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d events want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v want %+v", i, got[i], want[i])
		}
	}
	if _, err := Validate(got); err != nil {
		t.Fatalf("round-tripped trace invalid: %v", err)
	}
}

func TestAppendRecordEmptyAndTagged(t *testing.T) {
	rec, err := AppendRecord(nil, "counter", Counter{Name: CounterPoolJoins, Value: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"ev":"counter","name":"pool_worker_joins","value":7}` + "\n"
	if string(rec) != want {
		t.Fatalf("got %q want %q", rec, want)
	}
	// Event kinds with omitempty zeros must still keep the meaningful
	// zero-valued numeric fields (level 0, round 0).
	rec, err = AppendRecord(nil, "round", Round{})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"level":0`, `"round":0`, `"frontier":0`} {
		if !strings.Contains(string(rec), field) {
			t.Fatalf("record %q missing %s", rec, field)
		}
	}
	if _, err := AppendRecord(nil, "x", 42); err == nil {
		t.Fatal("non-object event accepted")
	}
}

func TestParseJSONLErrors(t *testing.T) {
	for name, in := range map[string]string{
		"garbage":      "not json\n",
		"missing-kind": `{"level":0}` + "\n",
		"unknown-kind": `{"ev":"bogus"}` + "\n",
		"bad-field":    `{"ev":"round","level":"zero"}` + "\n",
	} {
		if _, err := ParseJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Blank lines are fine.
	evs, err := ParseJSONL(strings.NewReader("\n\n" + `{"ev":"counter","name":"pool_worker_joins","value":1}` + "\n\n"))
	if err != nil || len(evs) != 1 {
		t.Fatalf("blank-line handling: %v %v", evs, err)
	}
}

func TestValidateRejects(t *testing.T) {
	run := RunStart{Vertices: 4, Edges: 6}
	for name, evs := range map[string][]Event{
		"nested-run":      {{KindRunStart, run}, {KindRunStart, run}},
		"end-no-start":    {{KindRunEnd, RunEnd{}}},
		"open-run":        {{KindRunStart, run}},
		"open-level":      {{KindRunStart, run}, {KindLevelStart, LevelStart{Level: 0}}, {KindRunEnd, RunEnd{}}},
		"level-skip":      {{KindRunStart, run}, {KindLevelStart, LevelStart{Level: 1}}},
		"mismatched-end":  {{KindRunStart, run}, {KindLevelStart, LevelStart{Level: 0}}, {KindLevelEnd, LevelEnd{Level: 1}}},
		"edges-grow":      {{KindRunStart, run}, {KindLevelStart, LevelStart{Level: 0, EdgesIn: 4}}, {KindLevelEnd, LevelEnd{Level: 0, EdgesIn: 4}}, {KindLevelStart, LevelStart{Level: 1, EdgesIn: 9}}},
		"out-exceeds-in":  {{KindRunStart, run}, {KindLevelStart, LevelStart{Level: 0, EdgesIn: 4}}, {KindLevelEnd, LevelEnd{Level: 0, EdgesIn: 4, EdgesCut: 4, EdgesOut: 5}}},
		"out-exceeds-cut": {{KindRunStart, run}, {KindLevelStart, LevelStart{Level: 0, EdgesIn: 4}}, {KindLevelEnd, LevelEnd{Level: 0, EdgesIn: 4, EdgesCut: 2, EdgesOut: 3}}},
		"cut-exceeds-in":  {{KindRunStart, run}, {KindLevelStart, LevelStart{Level: 0, EdgesIn: 4}}, {KindLevelEnd, LevelEnd{Level: 0, EdgesIn: 4, EdgesCut: 6}}},
		"meta-in-run":     {{KindRunStart, run}, {KindMeta, Meta{}}, {KindRunEnd, RunEnd{}}},
		"unknown-phase":   {{KindPhase, Phase{Name: "warp_drive"}}},
		"unknown-counter": {{KindCounter, Counter{Name: "bogus"}}},
		"negative-round":  {{KindRound, Round{Frontier: -1}}},
		"centers-mismatch": {{KindRunStart, run}, {KindLevelStart, LevelStart{Level: 0}},
			{KindRound, Round{Level: 0, Frontier: 4, NewCenters: 4}}, {KindLevelEnd, LevelEnd{Level: 0, Components: 5}}},
	} {
		if _, err := Validate(evs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestValidateRepeatedRuns(t *testing.T) {
	// Back-to-back runs each restarting at level 0 must validate even when
	// the second run's graph is larger (prevEdgesIn resets per recursion).
	tr := NewTrace()
	emitAll(tr)
	emitAll(tr)
	s, err := Validate(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	if s.Runs != 2 || s.Levels != 4 || s.Counters != 4 {
		t.Fatalf("summary %+v", s)
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("all-nil Multi must collapse to nil")
	}
	tr := NewTrace()
	if got := Multi(nil, tr, nil); got != Recorder(tr) {
		t.Fatal("single survivor must be returned unwrapped")
	}
	a, b := NewTrace(), NewTrace()
	m := Multi(a, nil, b)
	emitAll(m)
	if a.Len() == 0 || a.Len() != b.Len() {
		t.Fatalf("fan-out mismatch: %d vs %d", a.Len(), b.Len())
	}
}

func TestNopAndNilRecorder(t *testing.T) {
	var r Recorder = Nop{}
	emitAll(r) // must not panic or record anything
}

func TestShardedInt64(t *testing.T) {
	s := NewShardedInt64(5) // rounds up to 8
	s.Add(0, 3)
	s.Add(8, 4) // masks onto shard 0
	s.Add(3, 0) // zero deltas are skipped
	if got := s.Sum(); got != 7 {
		t.Fatalf("Sum %d want 7", got)
	}
	s.Reset()
	if got := s.Sum(); got != 0 {
		t.Fatalf("Sum after Reset %d want 0", got)
	}

	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.Add(w, 1)
			}
		}(w)
	}
	wg.Wait()
	if got := s.Sum(); got != workers*perWorker {
		t.Fatalf("concurrent Sum %d want %d", got, workers*perWorker)
	}
}

// TestShardedInt64SharedBetweenRuns mirrors the engine pattern of two
// concurrent coordinators flushing worker counts through one accumulator.
func TestShardedInt64SharedBetweenRuns(t *testing.T) {
	s := NewShardedInt64(4)
	var wg sync.WaitGroup
	const perRun = 10_000
	for run := 0; run < 2; run++ {
		wg.Add(1)
		go func(run int) {
			defer wg.Done()
			var inner sync.WaitGroup
			for w := 0; w < 4; w++ {
				inner.Add(1)
				go func(w int) {
					defer inner.Done()
					for i := 0; i < perRun; i++ {
						s.Add(run*4+w, 1)
					}
				}(w)
			}
			inner.Wait()
		}(run)
	}
	wg.Wait()
	if got := s.Sum(); got != 2*4*perRun {
		t.Fatalf("Sum %d want %d", got, 2*4*perRun)
	}
}
