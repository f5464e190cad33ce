package baseline

import (
	"testing"

	"parconn/internal/graph"
	"parconn/internal/parallel"
	"parconn/internal/unionfind"
)

type ccFunc func(*parallel.Pool, int, *graph.Graph) []int32

func algorithms() map[string]ccFunc {
	return map[string]ccFunc{
		"serial-SF":          func(_ *parallel.Pool, _ int, g *graph.Graph) []int32 { return SerialSF(g) },
		"parallel-SF-PBBS":   ParallelSFPBBS,
		"parallel-SF-PRM":    ParallelSFPRM,
		"hybrid-BFS-CC":      HybridBFSCC,
		"multistep-CC":       MultistepCC,
		"labelprop-CC":       LabelPropCC,
		"sv-CC":              ShiloachVishkinCC,
		"randmate-CC":        func(pool *parallel.Pool, procs int, g *graph.Graph) []int32 { return RandomMateCC(pool, procs, g, 7) },
		"parallel-SF-verify": ParallelSFVerify,
	}
}

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"random":     graph.Random(3000, 5, 1),
		"rmat":       graph.RMat(11, graph.RMatOptions{EdgeFactor: 5, Seed: 2}),
		"grid3d":     graph.Grid3D(9, 3),
		"line":       graph.Line(3000, 4),
		"star":       graph.Star(500),
		"isolated":   graph.FromEdges(40, nil, graph.BuildOptions{}),
		"empty":      graph.FromEdges(0, nil, graph.BuildOptions{}),
		"single":     graph.FromEdges(1, nil, graph.BuildOptions{}),
		"many-comps": graph.Components(graph.Line(300, 5), graph.Grid3D(5, 6), graph.Star(40), graph.FromEdges(25, nil, graph.BuildOptions{}), graph.Random(200, 3, 9)),
		"dense":      graph.RMat(8, graph.RMatOptions{EdgeFactor: 40, Seed: 7}),
	}
}

func checkLabels(t *testing.T, name, alg string, g *graph.Graph, labels []int32) {
	t.Helper()
	if len(labels) != g.N {
		t.Fatalf("%s/%s: labels length %d != n %d", name, alg, len(labels), g.N)
	}
	for v, l := range labels {
		if l < 0 || int(l) >= g.N {
			t.Fatalf("%s/%s: labels[%d]=%d out of range", name, alg, v, l)
		}
		if labels[l] != l {
			t.Fatalf("%s/%s: label %d not canonical", name, alg, l)
		}
	}
	if ref := graph.RefCC(g); !graph.SamePartition(ref, labels) {
		t.Fatalf("%s/%s: partition mismatch (got %d comps want %d)",
			name, alg, graph.NumComponentsOf(labels), graph.NumComponentsOf(ref))
	}
}

func TestAllBaselinesAllGraphs(t *testing.T) {
	for gname, g := range testGraphs() {
		for aname, fn := range algorithms() {
			labels := fn(parallel.Default(), 0, g)
			checkLabels(t, gname, aname, g, labels)
		}
	}
}

func TestBaselinesAcrossProcs(t *testing.T) {
	g := graph.Components(graph.RMat(10, graph.RMatOptions{EdgeFactor: 5, Seed: 4}), graph.Line(500, 1))
	for _, procs := range []int{1, 2, 8} {
		for aname, fn := range algorithms() {
			labels := fn(parallel.Default(), procs, g)
			checkLabels(t, "mixed", aname, g, labels)
		}
	}
}

func TestSpanningForestProperties(t *testing.T) {
	for gname, g := range testGraphs() {
		forest := SpanningForest(parallel.Default(), 0, g)
		ref := graph.RefCC(g)
		comps := graph.NumComponentsOf(ref)
		if len(forest) != g.N-comps {
			t.Fatalf("%s: forest has %d edges, want n-#comps = %d", gname, len(forest), g.N-comps)
		}
		// The forest edges must be real edges and must reconnect exactly the
		// same partition (acyclicity follows from the edge count).
		u := unionfind.NewSerial(g.N)
		for _, e := range forest {
			found := false
			for _, w := range g.Neighbors(e.U) {
				if w == e.V {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s: forest edge (%d,%d) not in graph", gname, e.U, e.V)
			}
			if !u.Union(e.U, e.V) {
				t.Fatalf("%s: forest edge (%d,%d) creates a cycle", gname, e.U, e.V)
			}
		}
		labels := make([]int32, g.N)
		for v := range labels {
			labels[v] = u.Find(int32(v))
		}
		if !graph.SamePartition(ref, labels) {
			t.Fatalf("%s: forest does not span the components", gname)
		}
	}
}

func TestHybridBFSVisitsEveryComponent(t *testing.T) {
	// 100 tiny components force 100 sequential BFS invocations.
	parts := make([]*graph.Graph, 100)
	for i := range parts {
		parts[i] = graph.Line(5, uint64(i))
	}
	g := graph.Components(parts...)
	labels := HybridBFSCC(parallel.Default(), 0, g)
	checkLabels(t, "100comps", "hybrid-BFS-CC", g, labels)
	if got := graph.NumComponentsOf(labels); got != 100 {
		t.Fatalf("components=%d want 100", got)
	}
}

func TestMultistepPicksGiantComponent(t *testing.T) {
	// One giant component plus residue; the BFS seed must land in the giant
	// one (max degree) and label prop must finish the rest.
	g := graph.Components(graph.RMat(10, graph.RMatOptions{EdgeFactor: 8, Seed: 1}), graph.Line(50, 2), graph.Star(20))
	labels := MultistepCC(parallel.Default(), 0, g)
	checkLabels(t, "giant+residue", "multistep-CC", g, labels)
}

func TestLabelPropConvergesToMin(t *testing.T) {
	g := graph.Line(100, 3)
	labels := LabelPropCC(parallel.Default(), 0, g)
	// Pure label propagation converges to the minimum vertex id per
	// component.
	min := int32(0)
	for v := 1; v < g.N; v++ {
		if labels[v] != labels[0] {
			t.Fatalf("line not single-labeled")
		}
	}
	for _, l := range labels {
		if l < min {
			t.Fatal("label below minimum id")
		}
	}
	if labels[0] != 0 && graph.NumComponentsOf(labels) == 1 {
		// the component contains vertex 0, so its min id is 0
		t.Fatalf("converged label %d, want 0", labels[0])
	}
}

func TestSVWorstCaseLine(t *testing.T) {
	// A long path is SV's slow case (many pointer-jumping rounds) but must
	// stay correct.
	g := graph.Line(10000, 9)
	labels := ShiloachVishkinCC(parallel.Default(), 0, g)
	checkLabels(t, "line10k", "sv-CC", g, labels)
}

func BenchmarkBaselinesRandom(b *testing.B) {
	g := graph.Random(100000, 5, 1)
	for name, fn := range algorithms() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fn(parallel.Default(), 0, g)
			}
		})
	}
}

func TestSampledSFAllGraphs(t *testing.T) {
	for gname, g := range testGraphs() {
		for _, k := range []int{1, 2, 8} {
			labels := SampledSF(parallel.Default(), 0, g, k)
			checkLabels(t, gname, "sampled-SF", g, labels)
		}
	}
}

func TestSampledSFAdversarial(t *testing.T) {
	// A graph whose giant-component guess is wrong-ish: many equal-size
	// components; sampling must not corrupt correctness.
	parts := make([]*graph.Graph, 20)
	for i := range parts {
		parts[i] = graph.Random(200, 4, uint64(i))
	}
	g := graph.Components(parts...)
	labels := SampledSF(parallel.Default(), 0, g, 2)
	checkLabels(t, "20xrandom", "sampled-SF", g, labels)
}

func TestLDDSampledAllGraphs(t *testing.T) {
	for gname, g := range testGraphs() {
		for _, beta := range []float64{0.05, 0.2, 0.5} {
			labels, err := LDDSampledCC(parallel.Default(), 0, g, beta, 11)
			if err != nil {
				t.Fatalf("%s/beta=%v: %v", gname, beta, err)
			}
			checkLabels(t, gname, "ldd-uf-CC", g, labels)
		}
	}
}
