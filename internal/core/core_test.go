package core

import (
	"testing"
	"time"

	"parconn/internal/decomp"
	"parconn/internal/graph"
	"parconn/internal/obs"
)

var variants = []decomp.Variant{decomp.Min, decomp.Arb, decomp.ArbHybrid}
var dedups = []DedupMode{DedupHash, DedupSort, DedupNone}

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"random":     graph.Random(3000, 5, 1),
		"rmat":       graph.RMat(11, graph.RMatOptions{EdgeFactor: 5, Seed: 2}),
		"rmat-dup":   graph.RMat(10, graph.RMatOptions{EdgeFactor: 8, Seed: 12, KeepDuplicates: true}),
		"grid3d":     graph.Grid3D(10, 3),
		"line":       graph.Line(4000, 4),
		"star":       graph.Star(700),
		"isolated":   graph.FromEdges(60, nil, graph.BuildOptions{}),
		"empty":      graph.FromEdges(0, nil, graph.BuildOptions{}),
		"single":     graph.FromEdges(1, nil, graph.BuildOptions{}),
		"one-edge":   graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}, graph.BuildOptions{}),
		"many-comps": graph.Components(graph.Line(200, 5), graph.Grid3D(5, 6), graph.Star(50), graph.FromEdges(10, nil, graph.BuildOptions{})),
		"dense":      graph.RMat(8, graph.RMatOptions{EdgeFactor: 60, Seed: 7}),
	}
}

// checkLabels verifies the CC contract against the sequential oracle:
// identical partitions, and labels that are canonical component ids.
func checkLabels(t *testing.T, g *graph.Graph, labels []int32) {
	t.Helper()
	if len(labels) != g.N {
		t.Fatalf("labels length %d, want %d", len(labels), g.N)
	}
	for v, l := range labels {
		if l < 0 || int(l) >= g.N {
			t.Fatalf("labels[%d]=%d out of range", v, l)
		}
		if labels[l] != l {
			t.Fatalf("labels[%d]=%d is not canonical (labels[%d]=%d)", v, l, l, labels[l])
		}
	}
	ref := graph.RefCC(g)
	if !graph.SamePartition(ref, labels) {
		t.Fatalf("partition differs from BFS reference (got %d comps, want %d)",
			graph.NumComponentsOf(labels), graph.NumComponentsOf(ref))
	}
}

func TestCCAllVariantsAllGraphs(t *testing.T) {
	for name, g := range testGraphs() {
		for _, variant := range variants {
			labels, err := CC(g, Options{Variant: variant, Seed: 42})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, variant, err)
			}
			checkLabels(t, g, labels)
		}
	}
}

func TestCCDedupModes(t *testing.T) {
	g := graph.RMat(10, graph.RMatOptions{EdgeFactor: 10, Seed: 3, KeepDuplicates: true})
	for _, mode := range dedups {
		labels, err := CC(g, Options{Variant: decomp.Arb, Dedup: mode, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		checkLabels(t, g, labels)
	}
}

func TestCCBetaRange(t *testing.T) {
	g := graph.Random(2000, 5, 9)
	for _, beta := range []float64{0.01, 0.05, 0.1, 0.2, 0.4, 0.8, 0.95} {
		labels, err := CC(g, Options{Variant: decomp.ArbHybrid, Beta: beta, Seed: 2})
		if err != nil {
			t.Fatalf("beta=%v: %v", beta, err)
		}
		checkLabels(t, g, labels)
	}
	if _, err := CC(g, Options{Beta: 1.5}); err == nil {
		t.Fatal("beta=1.5 accepted")
	}
	if _, err := CC(g, Options{Beta: -1}); err == nil {
		t.Fatal("beta=-1 accepted")
	}
}

func TestCCSeedsVary(t *testing.T) {
	// Different seeds must still give correct (identical) partitions.
	g := graph.Components(graph.Random(500, 5, 1), graph.Line(500, 2))
	var first []int32
	for seed := uint64(0); seed < 5; seed++ {
		labels, err := CC(g, Options{Variant: decomp.Arb, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		checkLabels(t, g, labels)
		if first == nil {
			first = labels
		} else if !graph.SamePartition(first, labels) {
			t.Fatal("seeds disagree on the partition")
		}
	}
}

func TestCCProcsAgree(t *testing.T) {
	g := graph.RMat(11, graph.RMatOptions{EdgeFactor: 5, Seed: 4})
	for _, procs := range []int{1, 2, 8} {
		for _, variant := range variants {
			labels, err := CC(g, Options{Variant: variant, Seed: 7, Procs: procs})
			if err != nil {
				t.Fatal(err)
			}
			checkLabels(t, g, labels)
		}
	}
}

// TestCCMixedDirections labels a star joined with a line, whose hybrid
// rounds go sparse, dense (the star's leaves) and sparse again (the line),
// at several dense thresholds and worker counts, against the oracle.
func TestCCMixedDirections(t *testing.T) {
	g := graph.Components(graph.Star(6000), graph.Line(4000, 9))
	for _, frac := range []float64{0.01, 0.2, 0.5} {
		for _, procs := range []int{1, 2, 4, 8} {
			labels, err := CC(g, Options{Variant: decomp.ArbHybrid, DenseFrac: frac, Seed: 5, Procs: procs})
			if err != nil {
				t.Fatal(err)
			}
			checkLabels(t, g, labels)
		}
	}
}

func TestCCLevelEnds(t *testing.T) {
	g := graph.Random(5000, 5, 11)
	tr := obs.NewTrace()
	labels, err := CC(g, Options{Variant: decomp.ArbHybrid, Beta: 0.2, Seed: 1, Recorder: tr})
	if err != nil {
		t.Fatal(err)
	}
	checkLabels(t, g, labels)
	levels := tr.LevelEnds()
	if len(levels) == 0 {
		t.Fatal("no level stats")
	}
	if levels[0].EdgesIn != g.NumDirected() {
		t.Fatalf("level 0 EdgesIn=%d, want %d", levels[0].EdgesIn, g.NumDirected())
	}
	for i, ls := range levels {
		if ls.Level != i {
			t.Fatalf("level %d recorded as %d", i, ls.Level)
		}
		if ls.EdgesCut > ls.EdgesIn {
			t.Fatalf("level %d: cut %d > in %d", i, ls.EdgesCut, ls.EdgesIn)
		}
		if ls.EdgesOut > ls.EdgesCut {
			t.Fatalf("level %d: out %d > cut %d (dedup added edges?)", i, ls.EdgesOut, ls.EdgesCut)
		}
		if i > 0 && ls.EdgesIn != levels[i-1].EdgesOut {
			t.Fatalf("level %d EdgesIn=%d, prior EdgesOut=%d", i, ls.EdgesIn, levels[i-1].EdgesOut)
		}
	}
	last := levels[len(levels)-1]
	if last.EdgesOut != 0 && last.EdgesCut != 0 {
		t.Fatalf("last level still has edges: %+v", last)
	}
	// Geometric decrease: by the 2*beta bound, level 1's input should be
	// well under half of level 0's (duplicates removed makes it far less).
	if len(levels) > 1 && float64(levels[1].EdgesIn) > 0.5*float64(levels[0].EdgesIn) {
		t.Fatalf("edges did not shrink: %d -> %d", levels[0].EdgesIn, levels[1].EdgesIn)
	}
}

func TestCCPhases(t *testing.T) {
	g := graph.Random(4000, 5, 13)
	tr := obs.NewTrace()
	if _, err := CC(g, Options{Variant: decomp.Arb, Seed: 1, Recorder: tr}); err != nil {
		t.Fatal(err)
	}
	sums := make(map[string]time.Duration)
	for _, p := range tr.Phases() {
		sums[p.Name] += p.Duration
	}
	if sums[obs.PhaseBFSMain] <= 0 {
		t.Fatal("no BFS time recorded")
	}
	if sums[obs.PhaseContract] <= 0 {
		t.Fatal("no contract time recorded")
	}
}

func TestCCDedupNoneStillShrinks(t *testing.T) {
	// The paper: the edge count decreases by a constant factor in
	// expectation even without duplicate removal.
	g := graph.RMat(10, graph.RMatOptions{EdgeFactor: 20, Seed: 5, KeepDuplicates: true})
	tr := obs.NewTrace()
	labels, err := CC(g, Options{Variant: decomp.Arb, Beta: 0.1, Seed: 3, Dedup: DedupNone, Recorder: tr})
	if err != nil {
		t.Fatal(err)
	}
	checkLabels(t, g, labels)
	levels := tr.LevelEnds()
	for i := 1; i < len(levels); i++ {
		if levels[i].EdgesIn >= levels[i-1].EdgesIn {
			t.Fatalf("level %d: edges grew %d -> %d", i, levels[i-1].EdgesIn, levels[i].EdgesIn)
		}
	}
}

func TestCCHugeBetaManyLevels(t *testing.T) {
	// beta close to 1 cuts most edges each level, forcing deep recursion;
	// the result must still be exact.
	g := graph.Line(2000, 6)
	labels, err := CC(g, Options{Variant: decomp.Arb, Beta: 0.9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkLabels(t, g, labels)
}

func TestDebugHighBeta(t *testing.T) {
	// A short line at beta 0.9 recurses through many tiny levels; the
	// labels must be exact and the traced levels must chain edge counts
	// down to an empty last level.
	g := graph.Line(50, 6)
	tr := obs.NewTrace()
	labels, err := CC(g, Options{Variant: decomp.Arb, Beta: 0.9, Seed: 1, Recorder: tr})
	if err != nil {
		t.Fatal(err)
	}
	checkLabels(t, g, labels)
	levels := tr.LevelEnds()
	if len(levels) == 0 {
		t.Fatal("no levels traced")
	}
	if levels[0].EdgesIn != g.NumDirected() {
		t.Fatalf("level 0 EdgesIn=%d, want %d", levels[0].EdgesIn, g.NumDirected())
	}
	for i, ls := range levels {
		if ls.Level != i {
			t.Fatalf("level %d recorded as %d", i, ls.Level)
		}
		if ls.EdgesOut > ls.EdgesCut || ls.EdgesCut > ls.EdgesIn {
			t.Fatalf("level %d: in %d, cut %d, out %d", i, ls.EdgesIn, ls.EdgesCut, ls.EdgesOut)
		}
		if i > 0 && ls.EdgesIn != levels[i-1].EdgesOut {
			t.Fatalf("level %d EdgesIn=%d, prior EdgesOut=%d", i, ls.EdgesIn, levels[i-1].EdgesOut)
		}
	}
	if last := levels[len(levels)-1]; last.EdgesOut != 0 {
		t.Fatalf("last level still has edges: %+v", last)
	}
}

func TestCCSingletonMix(t *testing.T) {
	// Interleave isolated vertices with small components to exercise the
	// singleton-dropping path at every level.
	edges := []graph.Edge{}
	for i := int32(0); i < 100; i++ {
		base := i * 5
		edges = append(edges, graph.Edge{U: base, V: base + 1}, graph.Edge{U: base + 1, V: base + 2})
		// vertices base+3, base+4 stay isolated
	}
	g := graph.FromEdges(500, edges, graph.BuildOptions{})
	for _, variant := range variants {
		labels, err := CC(g, Options{Variant: variant, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		checkLabels(t, g, labels)
	}
}

func TestDedupModeString(t *testing.T) {
	if DedupHash.String() != "hash" || DedupSort.String() != "sort" || DedupNone.String() != "none" {
		t.Fatal("dedup names changed")
	}
	if DedupMode(9).String() == "" {
		t.Fatal("unknown mode has empty name")
	}
}
