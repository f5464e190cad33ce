package parconn

import (
	"bytes"
	"math"
	"testing"

	"parconn/internal/obs"
)

var decompAlgorithms = []Algorithm{DecompArbHybrid, DecompArb, DecompMin}

// TestTraceEdgeDecay checks the paper's geometric-decay direction on real
// traces: each recursion level's incoming edge count never exceeds the
// previous level's, and no level emits more edges than it received.
func TestTraceEdgeDecay(t *testing.T) {
	graphs := map[string]*Graph{
		"rmat": RMatGraph(10, RMatOptions{EdgeFactor: 8, Seed: 11}),
		"line": LineGraph(3000, 1),
	}
	for gname, g := range graphs {
		for _, alg := range decompAlgorithms {
			tr := NewTrace()
			labels, err := ConnectedComponents(g, Options{Algorithm: alg, Seed: 7, Recorder: tr})
			if err != nil {
				t.Fatalf("%s/%v: %v", gname, alg, err)
			}
			if err := VerifyLabeling(g, labels); err != nil {
				t.Fatalf("%s/%v: %v", gname, alg, err)
			}
			ends := tr.LevelEnds()
			if len(ends) == 0 {
				t.Fatalf("%s/%v: no level events", gname, alg)
			}
			prev := int64(math.MaxInt64)
			for i, e := range ends {
				if e.EdgesIn > prev {
					t.Fatalf("%s/%v: level %d edges_in %d > previous %d", gname, alg, e.Level, e.EdgesIn, prev)
				}
				if e.EdgesOut > e.EdgesIn {
					t.Fatalf("%s/%v: level %d edges_out %d > edges_in %d", gname, alg, e.Level, e.EdgesOut, e.EdgesIn)
				}
				if i > 0 && e.EdgesIn != ends[i-1].EdgesOut {
					t.Fatalf("%s/%v: level %d edges_in %d != previous edges_out %d",
						gname, alg, e.Level, e.EdgesIn, ends[i-1].EdgesOut)
				}
				prev = e.EdgesIn
			}
			// The full structural validator must agree.
			if _, err := ValidateTraceEvents(tr.Events()); err != nil {
				t.Fatalf("%s/%v: %v", gname, alg, err)
			}
		}
	}
}

// TestTraceBracketing checks run_start/run_end bracketing for every
// algorithm (baselines get run-level coverage from the public wrapper).
func TestTraceBracketing(t *testing.T) {
	g := RMatGraph(8, RMatOptions{EdgeFactor: 6, Seed: 3})
	for _, alg := range Algorithms {
		tr := NewTrace()
		labels, err := ConnectedComponents(g, Options{Algorithm: alg, Seed: 5, Recorder: tr})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		evs := tr.Events()
		if len(evs) < 2 {
			t.Fatalf("%v: %d events", alg, len(evs))
		}
		start, ok := evs[0].V.(RunStart)
		if !ok {
			t.Fatalf("%v: first event %T", alg, evs[0].V)
		}
		if start.Algorithm != alg.String() || start.Vertices != g.NumVertices() {
			t.Fatalf("%v: run_start %+v", alg, start)
		}
		end, ok := evs[len(evs)-1].V.(RunEnd)
		if !ok {
			t.Fatalf("%v: last event %T", alg, evs[len(evs)-1].V)
		}
		if end.Components != countComponents(labels) || end.Err != "" || end.Duration <= 0 {
			t.Fatalf("%v: run_end %+v", alg, end)
		}
		if _, err := ValidateTraceEvents(evs); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
	}
}

// TestTraceJSONLEndToEnd streams a live run through the JSONL recorder and
// re-validates the parsed bytes.
func TestTraceJSONLEndToEnd(t *testing.T) {
	g := RMatGraph(9, RMatOptions{EdgeFactor: 8, Seed: 4})
	var buf bytes.Buffer
	jr := NewJSONLRecorder(&buf)
	if _, err := ConnectedComponents(g, Options{Recorder: jr, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := jr.Flush(); err != nil {
		t.Fatal(err)
	}
	sum, err := ValidateTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Runs != 1 || sum.Levels == 0 || sum.Rounds == 0 || sum.Phases == 0 || sum.Counters != 3 {
		t.Fatalf("summary %+v", sum)
	}
}

// TestDecomposeTrace checks the standalone decomposition entry point emits a
// bracketed level-0 stream.
func TestDecomposeTrace(t *testing.T) {
	g := RMatGraph(9, RMatOptions{EdgeFactor: 8, Seed: 6})
	tr := NewTrace()
	d, err := Decompose(g, DecompOptions{Seed: 3, Recorder: tr})
	if err != nil {
		t.Fatal(err)
	}
	runs := tr.Runs()
	if len(runs) != 1 || runs[0].Vertices != g.NumVertices() {
		t.Fatalf("runs %+v", runs)
	}
	if len(tr.Rounds()) == 0 || len(tr.Phases()) == 0 {
		t.Fatal("no round/phase events from Decompose")
	}
	for _, r := range tr.Rounds() {
		if r.Level != 0 {
			t.Fatalf("standalone decomposition emitted level %d", r.Level)
		}
	}
	if d.NumPartitions <= 0 {
		t.Fatalf("partitions %d", d.NumPartitions)
	}
	if _, err := ValidateTraceEvents(tr.Events()); err != nil {
		t.Fatal(err)
	}
}

// TestOptionsValidation checks the API-boundary rejections: out-of-range or
// NaN parameters and knob/algorithm mismatches return descriptive errors
// instead of panicking or silently misbehaving.
func TestOptionsValidation(t *testing.T) {
	g := LineGraph(10, 1)
	nan := math.NaN()
	bad := map[string]Options{
		"beta-negative":          {Beta: -0.5},
		"beta-one":               {Beta: 1},
		"beta-above":             {Beta: 1.5},
		"beta-nan":               {Beta: nan},
		"beta-nan-min":           {Algorithm: DecompMin, Beta: nan},
		"beta-nan-ldd":           {Algorithm: LDDUnionFind, Beta: nan},
		"beta-negative-ldd":      {Algorithm: LDDUnionFind, Beta: -1},
		"densefrac-negative":     {DenseFrac: -0.2},
		"densefrac-above":        {DenseFrac: 1.5},
		"densefrac-nan":          {DenseFrac: nan},
		"edgeparallel-neg":       {EdgeParallel: -1},
		"edgeparallel-serial":    {Algorithm: SerialSF, EdgeParallel: 8},
		"edgeparallel-ldd":       {Algorithm: LDDUnionFind, EdgeParallel: 8},
		"edgeparallel-labelprop": {Algorithm: LabelProp, EdgeParallel: 8},
		"edgeparallel-hybrid":    {Algorithm: DecompArbHybrid, EdgeParallel: 8},
		"edgeparallel-min":       {Algorithm: DecompMin, EdgeParallel: 8},
	}
	for name, opt := range bad {
		if _, err := ConnectedComponents(g, opt); err == nil {
			t.Errorf("%s: accepted %+v", name, opt)
		}
	}
	good := map[string]Options{
		"defaults":      {},
		"beta-edge":     {Beta: 0.999},
		"densefrac-one": {DenseFrac: 1},
		"edgeparallel":  {Algorithm: DecompArb, EdgeParallel: 4},
	}
	for name, opt := range good {
		labels, err := ConnectedComponents(g, opt)
		if err != nil {
			t.Errorf("%s: rejected: %v", name, err)
			continue
		}
		if err := VerifyLabeling(g, labels); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := Decompose(g, DecompOptions{Beta: nan}); err == nil {
		t.Error("Decompose accepted NaN beta")
	}
	if _, err := Decompose(g, DecompOptions{Beta: 2}); err == nil {
		t.Error("Decompose accepted beta 2")
	}
}

// TestRepeatedRunsIdenticalLabels is the dirty-buffer regression test: the
// engine recycles pooled machines and arena scratch, so a second run with
// the same seed must produce byte-identical labels even when other
// algorithms ran in between and left the arena dirty.
func TestRepeatedRunsIdenticalLabels(t *testing.T) {
	g := RMatGraph(10, RMatOptions{EdgeFactor: 8, Seed: 13})
	for _, alg := range decompAlgorithms {
		opt := Options{Algorithm: alg, Seed: 21}
		first, err := ConnectedComponents(g, opt)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		// Dirty the pooled scratch with different shapes and algorithms.
		if _, err := ConnectedComponents(LineGraph(5000, 2), Options{Algorithm: alg, Seed: 99}); err != nil {
			t.Fatal(err)
		}
		if _, err := ConnectedComponents(g, Options{Algorithm: LabelProp}); err != nil {
			t.Fatal(err)
		}
		second, err := ConnectedComponents(g, opt)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !int32SlicesEqual(first, second) {
			t.Fatalf("%v: repeated run changed labels", alg)
		}
	}
}

func int32SlicesEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReadBinaryGraphRejectsCorruption covers the public wrapper over the
// hardened binary reader.
func TestReadBinaryGraphRejectsCorruption(t *testing.T) {
	g := LineGraph(20, 1)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := ReadBinaryGraph(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinaryGraph(bytes.NewReader(good[:len(good)-2])); err == nil {
		t.Fatal("truncated graph accepted")
	}
}

// TestContractHashedPairs checks that the contraction's dedup choice shows
// in the trace: a line's level-0 pairs are nearly all distinct, so its
// sample skips the hash pre-pass, while a duplicate-keeping rMat repeats
// its level-0 pairs heavily and hashes every one of them.
func TestContractHashedPairs(t *testing.T) {
	level0 := func(g *Graph) (hashed, cut int64) {
		t.Helper()
		tr := NewTrace()
		if _, err := ConnectedComponents(g, Options{Algorithm: DecompArbHybrid, Procs: 2, Seed: 42, Recorder: tr}); err != nil {
			t.Fatal(err)
		}
		hashed = -1
		for _, e := range tr.Events() {
			switch v := e.V.(type) {
			case obs.Counter:
				if v.Name == obs.CounterHashedPairs && hashed < 0 {
					hashed = v.Value
				}
			case obs.LevelEnd:
				if v.Level == 0 {
					if hashed < 0 {
						t.Fatal("level 0 contracted without a hashed-pairs counter")
					}
					return hashed, v.EdgesCut
				}
			}
		}
		t.Fatal("no level_end for level 0")
		return 0, 0
	}
	if hashed, cut := level0(LineGraph(200_000, 1)); hashed != 0 || cut == 0 {
		t.Errorf("line: level 0 hashed %d of %d pairs, want 0", hashed, cut)
	}
	if hashed, cut := level0(benchRMat()); hashed != cut || cut == 0 {
		t.Errorf("rMat: level 0 hashed %d of %d pairs, want all", hashed, cut)
	}
}
