package parconn

import (
	"math"
	"testing"
	"testing/quick"

	"parconn/internal/graph"
	"parconn/internal/prand"
)

// integrationGraphs is the cross-algorithm test zoo: every input family
// from the paper plus degenerate shapes.
func integrationGraphs() map[string]*Graph {
	return map[string]*Graph{
		"random":     RandomGraph(2000, 5, 1),
		"rmat":       RMatGraph(10, RMatOptions{EdgeFactor: 5, Seed: 2}),
		"rmat2":      RMatGraph(7, RMatOptions{EdgeFactor: 60, Seed: 3}),
		"grid3d":     Grid3DGraph(9, 4),
		"line":       LineGraph(2000, 5),
		"social":     SocialGraph(9, 6),
		"star":       StarGraph(400),
		"empty":      mustGraph(0, nil),
		"single":     mustGraph(1, nil),
		"isolated":   mustGraph(30, nil),
		"one-edge":   mustGraph(2, []Edge{{U: 0, V: 1}}),
		"triangle":   mustGraph(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}),
		"many-comps": Union(LineGraph(100, 7), Grid3DGraph(4, 8), StarGraph(30), mustGraph(15, nil)),
	}
}

func mustGraph(n int, edges []Edge) *Graph {
	g, err := NewGraph(n, edges, BuildOptions{})
	if err != nil {
		panic(err)
	}
	return g
}

func reference(g *Graph) []int32 { return graph.RefCC(g.g) }

// TestAllAlgorithmsAgree is the central integration test: every algorithm
// must produce the same partition as the sequential BFS oracle on every
// graph family.
func TestAllAlgorithmsAgree(t *testing.T) {
	for gname, g := range integrationGraphs() {
		ref := reference(g)
		for _, alg := range Algorithms {
			labels, err := ConnectedComponents(g, Options{Algorithm: alg, Seed: 11})
			if err != nil {
				t.Fatalf("%s/%v: %v", gname, alg, err)
			}
			if !graph.SamePartition(ref, labels) {
				t.Fatalf("%s/%v: partition mismatch (%d comps, want %d)",
					gname, alg, NumComponents(labels), graph.NumComponentsOf(ref))
			}
			for v, l := range labels {
				if labels[l] != l {
					t.Fatalf("%s/%v: label of %d not canonical", gname, alg, v)
				}
			}
		}
	}
}

// TestQuickRandomEdgeLists drives every algorithm with arbitrary edge lists
// from testing/quick and checks them against the oracle.
func TestQuickRandomEdgeLists(t *testing.T) {
	f := func(raw []uint32, nSeed uint8) bool {
		n := int(nSeed%60) + 1
		edges := make([]Edge, 0, len(raw))
		for _, r := range raw {
			u := int32(r % uint32(n))
			v := int32((r / uint32(n)) % uint32(n))
			edges = append(edges, Edge{U: u, V: v})
		}
		// Self-loops are intentionally included: NewGraph must drop them.
		g, err := NewGraph(n, edges, BuildOptions{KeepDuplicates: true})
		if err != nil {
			return false
		}
		ref := reference(g)
		for _, alg := range Algorithms {
			labels, err := ConnectedComponents(g, Options{Algorithm: alg, Seed: uint64(nSeed)})
			if err != nil {
				return false
			}
			if !graph.SamePartition(ref, labels) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDecompositionInvariants property-tests the public Decompose on
// random graphs: full coverage, center-canonical labels, partitions
// connected.
func TestQuickDecompositionInvariants(t *testing.T) {
	f := func(seed uint16, betaRaw uint8) bool {
		src := prand.New(uint64(seed))
		n := src.Intn(300) + 2
		deg := src.Intn(4) + 1
		g := RandomGraph(n, deg, uint64(seed))
		beta := 0.05 + float64(betaRaw%90)/100.0
		d, err := Decompose(g, DecompOptions{Beta: beta, Seed: uint64(seed)})
		if err != nil {
			return false
		}
		if len(d.Labels) != n {
			return false
		}
		for _, l := range d.Labels {
			if l < 0 || int(l) >= n || d.Labels[l] != l {
				return false
			}
		}
		// Partitions refine components: same partition implies same
		// component in the reference labeling.
		ref := reference(g)
		for v, l := range d.Labels {
			if ref[v] != ref[l] {
				return false
			}
		}
		// Cut count matches a direct recount on the original graph.
		var cut int64
		for v := 0; v < n; v++ {
			for _, w := range g.Neighbors(int32(v)) {
				if d.Labels[v] != d.Labels[w] {
					cut++
				}
			}
		}
		return cut == d.CutEdges
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestLevelsShrinkGeometrically checks the paper's core complexity claim at
// the system level: per-level edge counts decay by at least a constant
// factor on average (Theorem 1's geometric series).
func TestLevelsShrinkGeometrically(t *testing.T) {
	for _, gname := range []string{"random", "rmat", "grid3d", "line"} {
		g := integrationGraphs()[gname]
		tr := NewTrace()
		if _, err := ConnectedComponents(g, Options{Algorithm: DecompArbHybrid, Beta: 0.2, Seed: 3, Recorder: tr}); err != nil {
			t.Fatal(err)
		}
		levels := tr.LevelEnds()
		if len(levels) == 0 {
			t.Fatalf("%s: no levels", gname)
		}
		if len(levels) == 1 {
			continue // single decomposition swallowed the graph
		}
		// Average shrink factor across levels must beat 0.75 (the 2*beta
		// expectation is 0.4; duplicates usually push it far lower).
		first := float64(levels[0].EdgesIn)
		last := float64(levels[len(levels)-1].EdgesIn)
		steps := float64(len(levels) - 1)
		if last > 0 && first > 0 {
			rate := math.Pow(last/first, 1/steps)
			if rate > 0.75 {
				t.Fatalf("%s: average shrink rate %.3f too slow", gname, rate)
			}
		}
	}
}
