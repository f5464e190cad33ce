package graph

import (
	"testing"

	"parconn/internal/parallel"
)

func TestFromEdgesBasic(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}}, BuildOptions{})
	if g.N != 4 || g.NumDirected() != 6 || g.NumUndirected() != 3 {
		t.Fatalf("n=%d m=%d", g.N, g.NumDirected())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 1 || g.Degree(1) != 2 || g.Degree(3) != 1 {
		t.Fatalf("degrees: %d %d %d %d", g.Degree(0), g.Degree(1), g.Degree(2), g.Degree(3))
	}
	nbr := g.Neighbors(1)
	if len(nbr) != 2 || nbr[0] != 0 || nbr[1] != 2 {
		t.Fatalf("Neighbors(1)=%v", nbr)
	}
}

func TestFromEdgesDropsSelfLoops(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 0}, {1, 1}, {0, 1}}, BuildOptions{})
	if g.NumUndirected() != 1 {
		t.Fatalf("m=%d want 1", g.NumUndirected())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgesDuplicates(t *testing.T) {
	dup := []Edge{{0, 1}, {0, 1}, {1, 0}}
	kept := FromEdges(2, dup, BuildOptions{})
	if kept.NumUndirected() != 3 {
		t.Fatalf("kept m=%d want 3", kept.NumUndirected())
	}
	dedup := FromEdges(2, dup, BuildOptions{RemoveDuplicates: true})
	if dedup.NumUndirected() != 1 {
		t.Fatalf("dedup m=%d want 1", dedup.NumUndirected())
	}
	if err := kept.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := dedup.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgesIsolatedVertices(t *testing.T) {
	g := FromEdges(10, []Edge{{7, 8}}, BuildOptions{})
	if g.N != 10 {
		t.Fatalf("n=%d", g.N)
	}
	for v := int32(0); v < 7; v++ {
		if g.Degree(v) != 0 {
			t.Fatalf("degree(%d)=%d", v, g.Degree(v))
		}
	}
	if g.Degree(7) != 1 || g.Degree(8) != 1 || g.Degree(9) != 0 {
		t.Fatal("wrong degrees around the single edge")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgesEmpty(t *testing.T) {
	g := FromEdges(0, nil, BuildOptions{})
	if g.N != 0 || g.NumDirected() != 0 {
		t.Fatal("empty graph malformed")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g1 := FromEdges(1, nil, BuildOptions{})
	if g1.N != 1 || g1.Degree(0) != 0 {
		t.Fatal("single-vertex graph malformed")
	}
}

func TestFromEdgesOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	FromEdges(2, []Edge{{0, 2}}, BuildOptions{})
}

func TestCloneIndependent(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {1, 2}}, BuildOptions{})
	cp := g.Clone()
	cp.Adj[0] = 2
	if g.Adj[0] == 2 && g.Adj[0] == cp.Adj[0] && &g.Adj[0] == &cp.Adj[0] {
		t.Fatal("clone shares storage")
	}
	g2 := FromEdges(3, []Edge{{0, 1}, {1, 2}}, BuildOptions{})
	for i := range g2.Adj {
		if g.Adj[i] != g2.Adj[i] {
			return // g unchanged relative to fresh build is what matters
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {1, 2}}, BuildOptions{})
	bad := g.Clone()
	bad.Adj[0] = 99
	if bad.Validate() == nil {
		t.Fatal("out-of-range target not caught")
	}
	bad2 := g.Clone()
	bad2.Offs[1] = 100
	if bad2.Validate() == nil {
		t.Fatal("bad offset not caught")
	}
	bad3 := g.Clone()
	bad3.Adj[0] = 2 // breaks symmetry: edge (0,2) has no reverse
	if bad3.Validate() == nil {
		t.Fatal("asymmetry not caught")
	}
}

func TestMaxDegree(t *testing.T) {
	g := Star(10)
	if g.MaxDegree() != 9 {
		t.Fatalf("star max degree=%d want 9", g.MaxDegree())
	}
	empty := &Graph{N: 0, Offs: []int64{0}}
	if empty.MaxDegree() != 0 {
		t.Fatal("empty max degree != 0")
	}
}

func TestRefCCLine(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {1, 2}, {3, 4}}, BuildOptions{})
	labels := RefCC(g)
	if NumComponentsOf(labels) != 2 {
		t.Fatalf("components=%d want 2", NumComponentsOf(labels))
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("0,1,2 not same component")
	}
	if labels[3] != labels[4] || labels[0] == labels[3] {
		t.Fatal("3,4 mislabeled")
	}
}

func TestRefCCIsolated(t *testing.T) {
	g := FromEdges(3, nil, BuildOptions{})
	labels := RefCC(g)
	if NumComponentsOf(labels) != 3 {
		t.Fatalf("components=%d want 3", NumComponentsOf(labels))
	}
}

func TestSamePartition(t *testing.T) {
	a := []int32{0, 0, 1, 1}
	b := []int32{5, 5, 9, 9}
	if !SamePartition(a, b) {
		t.Fatal("equivalent partitions reported different")
	}
	c := []int32{5, 5, 5, 9}
	if SamePartition(a, c) {
		t.Fatal("different partitions reported same")
	}
	d := []int32{5, 9, 5, 9}
	if SamePartition(a, d) {
		t.Fatal("crossed partitions reported same")
	}
	if SamePartition(a, []int32{1}) {
		t.Fatal("length mismatch reported same")
	}
}

func TestBFSDistancesLine(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}}, BuildOptions{})
	d := BFSDistances(g, 0)
	for i, want := range []int32{0, 1, 2, 3} {
		if d[i] != want {
			t.Fatalf("d[%d]=%d want %d", i, d[i], want)
		}
	}
	g2 := FromEdges(3, []Edge{{0, 1}}, BuildOptions{})
	d2 := BFSDistances(g2, 0)
	if d2[2] != -1 {
		t.Fatal("unreachable vertex not -1")
	}
}

func TestInducedSubgraphCheck(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}}, BuildOptions{})
	labels := []int32{0, 0, 1, 1}
	if cut := InducedSubgraphCheck(g, labels); cut != 2 {
		t.Fatalf("cut=%d want 2 (edge 1-2 in both directions)", cut)
	}
}

func TestComponentSizesOf(t *testing.T) {
	sizes := ComponentSizesOf([]int32{1, 1, 2, 1})
	if sizes[1] != 3 || sizes[2] != 1 {
		t.Fatalf("sizes=%v", sizes)
	}
}

func TestFromDirectedPairs(t *testing.T) {
	// pairs for the single undirected edge {0,1} plus a duplicate.
	pairs := []uint64{0<<32 | 1, 1 << 32, 0<<32 | 1, 1 << 32}
	g := FromDirectedPairs(parallel.Default(), 1, 2, pairs, true)
	if g.NumUndirected() != 1 {
		t.Fatalf("m=%d", g.NumUndirected())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	kept := FromDirectedPairs(parallel.Default(), 1, 2, append([]uint64(nil), 0<<32|1, 1<<32, 0<<32|1, 1<<32), false)
	if kept.NumUndirected() != 2 {
		t.Fatalf("kept m=%d", kept.NumUndirected())
	}
}
