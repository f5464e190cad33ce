package decomp

import (
	"testing"

	"parconn/internal/graph"
	"parconn/internal/parallel"
)

func TestEdgeParallelMatchesSequentialContract(t *testing.T) {
	// A tiny threshold forces the nested-parallel path for essentially
	// every frontier vertex; the decomposition contract must still hold on
	// graphs with and without hubs.
	for name, g := range map[string]*graph.Graph{
		"star":   graph.Star(2000),
		"rmat":   graph.RMat(10, graph.RMatOptions{EdgeFactor: 8, Seed: 3}),
		"random": graph.Random(2000, 5, 4),
		"line":   graph.Line(500, 5),
	} {
		for _, threshold := range []int{1, 4, 1 << 20} {
			w := NewWGraph(parallel.Default(), 0, g)
			res, err := Decompose(w, Arb, Options{Beta: 0.2, Seed: 7, EdgeParallel: threshold})
			if err != nil {
				t.Fatalf("%s/thr=%d: %v", name, threshold, err)
			}
			checkDecomposition(t, g, w, res, nil)
		}
	}
}

func TestEdgeParallelSameCutAsSequential(t *testing.T) {
	// With one worker the claim order is deterministic enough that the
	// surviving edge multiset must be identical with and without the
	// edge-parallel path (same seed, same winner per CAS when serialized).
	g := graph.Star(5000)
	w1 := NewWGraph(parallel.Default(), 1, g)
	if _, err := Decompose(w1, Arb, Options{Beta: 0.2, Seed: 9, Procs: 1}); err != nil {
		t.Fatal(err)
	}
	w2 := NewWGraph(parallel.Default(), 1, g)
	if _, err := Decompose(w2, Arb, Options{Beta: 0.2, Seed: 9, Procs: 1, EdgeParallel: 8}); err != nil {
		t.Fatal(err)
	}
	if w1.LiveEdges(parallel.Default(), 1) != w2.LiveEdges(parallel.Default(), 1) {
		t.Fatalf("cut differs: %d vs %d", w1.LiveEdges(parallel.Default(), 1), w2.LiveEdges(parallel.Default(), 1))
	}
}
