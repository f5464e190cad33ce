package core

import (
	"fmt"
	"runtime/pprof"
	"strings"
	"testing"

	"parconn/internal/decomp"
	"parconn/internal/graph"
	"parconn/internal/obs"
)

// goroutineRecord returns the record of the goroutine profile (debug=1)
// whose stack holds frame, labels line included, or "" if none does.
func goroutineRecord(frame string) string {
	var b strings.Builder
	if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil {
		panic(err)
	}
	for _, r := range strings.Split(b.String(), "\n\n") {
		if strings.Contains(r, frame) {
			return r
		}
	}
	return ""
}

// labelProbe checks, at every Round event (emitted on the coordinating
// goroutine inside a level's decomposition), that the emitting goroutine
// carries that level's decompose labels.
type labelProbe struct {
	*obs.Trace
	bad []string
}

func (p *labelProbe) Round(e obs.Round) {
	p.Trace.Round(e)
	want := fmt.Sprintf(`# labels: {"parconn_level":"%d", "parconn_phase":"decompose"}`, e.Level)
	if r := goroutineRecord("labelProbe).Round"); !strings.Contains(r, want) {
		p.bad = append(p.bad, r)
	}
}

// TestCCPprofLabels runs CC with a Recorder: each level's decomposition
// must run under its level's labels, and CC must return with the calling
// goroutine unlabelled.
func TestCCPprofLabels(t *testing.T) {
	p := &labelProbe{Trace: obs.NewTrace()}
	if _, err := CC(graph.Line(3000, 4), Options{Variant: decomp.ArbHybrid, Seed: 1, Procs: 2, Recorder: p}); err != nil {
		t.Fatal(err)
	}
	if len(p.LevelEnds()) < 2 || len(p.Rounds()) == 0 {
		t.Fatalf("%d levels, %d rounds: too few to check the labels", len(p.LevelEnds()), len(p.Rounds()))
	}
	if len(p.bad) > 0 {
		t.Fatalf("%d of %d rounds ran without their level's labels; first:\n%s", len(p.bad), len(p.Rounds()), p.bad[0])
	}
	if r := goroutineRecord("TestCCPprofLabels"); r == "" || strings.Contains(r, "# labels:") {
		t.Fatalf("CC returned with its goroutine labelled:\n%s", r)
	}
}
