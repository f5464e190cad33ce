package graph

import (
	"testing"

	"parconn/internal/parallel"
)

func TestInducedSubgraph(t *testing.T) {
	// 0-1-2-3-4 path; keep {1,2,3} -> path of 3.
	g := FromEdges(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}}, BuildOptions{})
	keep := []bool{false, true, true, true, false}
	sub, orig := InducedSubgraph(parallel.Default(), 0, g, keep)
	if sub.N != 3 || sub.NumUndirected() != 2 {
		t.Fatalf("n=%d m=%d", sub.N, sub.NumUndirected())
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []int32{1, 2, 3}
	for i, v := range want {
		if orig[i] != v {
			t.Fatalf("orig=%v", orig)
		}
	}
	if sub.Degree(1) != 2 || sub.Degree(0) != 1 {
		t.Fatal("degrees wrong")
	}
}

func TestInducedSubgraphKeepAllNone(t *testing.T) {
	g := Grid3D(4, 1)
	all := make([]bool, g.N)
	for i := range all {
		all[i] = true
	}
	sub, orig := InducedSubgraph(parallel.Default(), 0, g, all)
	if sub.N != g.N || sub.NumDirected() != g.NumDirected() {
		t.Fatal("keep-all changed shape")
	}
	if len(orig) != g.N {
		t.Fatal("orig length")
	}
	none := make([]bool, g.N)
	sub2, orig2 := InducedSubgraph(parallel.Default(), 0, g, none)
	if sub2.N != 0 || len(orig2) != 0 {
		t.Fatal("keep-none not empty")
	}
}

func TestInducedSubgraphLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	InducedSubgraph(parallel.Default(), 0, Line(5, 1), []bool{true})
}

func TestLargestComponent(t *testing.T) {
	g := Components(Line(10, 1), Line(30, 2), Line(5, 3))
	labels := RefCC(g)
	sub, orig := LargestComponent(parallel.Default(), 0, g, labels)
	if sub.N != 30 {
		t.Fatalf("largest has %d vertices, want 30", sub.N)
	}
	if sub.NumUndirected() != 29 {
		t.Fatalf("m=%d", sub.NumUndirected())
	}
	if NumComponentsOf(RefCC(sub)) != 1 {
		t.Fatal("largest component not connected")
	}
	// Every original vertex must come from the middle part [10, 40).
	for _, v := range orig {
		if v < 10 || v >= 40 {
			t.Fatalf("orig vertex %d outside largest component", v)
		}
	}
}

func TestDegrees(t *testing.T) {
	g := Star(5)
	d := Degrees(g)
	if d[0] != 4 || d[1] != 1 {
		t.Fatalf("degrees=%v", d)
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(6, 1)
	if g.N != 36 || g.NumUndirected() != 72 {
		t.Fatalf("n=%d m=%d", g.N, g.NumUndirected())
	}
	for v := 0; v < g.N; v++ {
		if g.Degree(int32(v)) != 4 {
			t.Fatalf("degree(%d)=%d", v, g.Degree(int32(v)))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if NumComponentsOf(RefCC(g)) != 1 {
		t.Fatal("2-torus not connected")
	}
	for _, side := range []int{0, 1, 2} {
		if err := Grid2D(side, 1).Validate(); err != nil {
			t.Fatalf("side=%d: %v", side, err)
		}
	}
}

func TestCompleteBinaryTree(t *testing.T) {
	g := CompleteBinaryTree(31, 2)
	if g.NumUndirected() != 30 {
		t.Fatalf("m=%d", g.NumUndirected())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if NumComponentsOf(RefCC(g)) != 1 {
		t.Fatal("tree not connected")
	}
	if CompleteBinaryTree(0, 1).N != 0 {
		t.Fatal("empty tree")
	}
}

func TestCliqueChain(t *testing.T) {
	g := CliqueChain(4, 5, 3)
	if g.N != 20 {
		t.Fatalf("n=%d", g.N)
	}
	// 4 cliques of C(5,2)=10 edges plus 3 bridges.
	if g.NumUndirected() != 4*10+3 {
		t.Fatalf("m=%d", g.NumUndirected())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if NumComponentsOf(RefCC(g)) != 1 {
		t.Fatal("chain not connected")
	}
}

func TestPreferentialAttachment(t *testing.T) {
	g := PreferentialAttachment(2000, 3, 4)
	if g.N != 2000 {
		t.Fatalf("n=%d", g.N)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if NumComponentsOf(RefCC(g)) != 1 {
		t.Fatal("PA graph not connected")
	}
	avg := float64(g.NumDirected()) / float64(g.N)
	if float64(g.MaxDegree()) < 3*avg {
		t.Fatalf("max degree %d not heavy-tailed (avg %.1f)", g.MaxDegree(), avg)
	}
}
