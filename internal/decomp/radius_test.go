package decomp

import (
	"math"
	"testing"

	"parconn/internal/graph"
	"parconn/internal/parallel"
)

// TestBallRadiusBound checks the decomposition's headline guarantee: every
// partition's radius (from its center, within the partition) is
// O(log n / beta) w.h.p. The BFS round count upper-bounds every radius, so
// it suffices to check Rounds <= c * (ln n / beta) with a small constant
// and additive slack.
func TestBallRadiusBound(t *testing.T) {
	type tc struct {
		name string
		g    *graph.Graph
		beta float64
	}
	cases := []tc{
		{"line-0.05", graph.Line(50000, 1), 0.05},
		{"line-0.2", graph.Line(50000, 2), 0.2},
		{"grid-0.1", graph.Grid3D(30, 3), 0.1},
		{"rmat-0.1", graph.RMat(13, graph.RMatOptions{EdgeFactor: 5, Seed: 4}), 0.1},
	}
	// The low-beta line cases dominate runtime (rounds scale with 1/beta);
	// one seed suffices for the race-detector -short lane.
	seeds := uint64(3)
	if testing.Short() {
		seeds = 1
	}
	for _, c := range cases {
		lnN := math.Log(float64(c.g.N))
		bound := int(4*lnN/c.beta) + 20
		for seed := uint64(0); seed < seeds; seed++ {
			for _, variant := range variants {
				w := NewWGraph(parallel.Default(), 0, c.g)
				res, err := Decompose(w, variant, Options{Beta: c.beta, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if res.Rounds > bound {
					t.Fatalf("%s/%v seed=%d: %d rounds exceeds 4*ln(n)/beta+20 = %d",
						c.name, variant, seed, res.Rounds, bound)
				}
			}
		}
	}
}

// TestDecompositionRefinesComponents: partitions never join vertices from
// different components, for every variant on a many-component graph.
func TestDecompositionRefinesComponents(t *testing.T) {
	g := graph.Components(
		graph.Line(500, 1), graph.Grid3D(6, 2), graph.Star(100),
		graph.RMat(8, graph.RMatOptions{EdgeFactor: 4, Seed: 3}),
	)
	ref := graph.RefCC(g)
	for _, variant := range variants {
		w := NewWGraph(parallel.Default(), 0, g)
		res, err := Decompose(w, variant, Options{Beta: 0.1, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		for v, l := range res.Labels {
			if ref[v] != ref[l] {
				t.Fatalf("%v: vertex %d grouped with center %d from another component", variant, v, l)
			}
		}
	}
}
