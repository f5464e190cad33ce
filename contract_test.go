package parconn

import (
	"slices"
	"testing"

	"parconn/internal/graph"
)

func TestContractByComponents(t *testing.T) {
	// Contracting by connectivity labels yields an edgeless graph with one
	// vertex per component.
	g := Union(LineGraph(30, 1), Grid3DGraph(3, 2), StarGraph(7))
	labels, err := ConnectedComponents(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, reps, err := Contract(g, labels, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumVertices() != 3 || q.NumEdges() != 0 {
		t.Fatalf("quotient: n=%d m=%d", q.NumVertices(), q.NumEdges())
	}
	if len(reps) != 3 {
		t.Fatal("reps length")
	}
}

func TestContractByDecomposition(t *testing.T) {
	// Contracting by a low-diameter decomposition yields a graph whose
	// components correspond 1:1 to the original's.
	g := Union(RandomGraph(2000, 5, 1), LineGraph(500, 2))
	d, err := Decompose(g, DecompOptions{Beta: 0.3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	q, reps, err := Contract(g, d.Labels, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumVertices() != d.NumPartitions {
		t.Fatalf("quotient n=%d partitions=%d", q.NumVertices(), d.NumPartitions)
	}
	// Quotient edge count = unique inter-partition pairs <= cut edges.
	if 2*q.NumEdges() > d.CutEdges {
		t.Fatalf("quotient directed edges %d exceed cut %d", 2*q.NumEdges(), d.CutEdges)
	}
	origLabels, err := ConnectedComponents(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	qLabels, err := ConnectedComponents(q, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if NumComponents(qLabels) != NumComponents(origLabels) {
		t.Fatalf("quotient has %d components, original %d", NumComponents(qLabels), NumComponents(origLabels))
	}
	// reps of connected quotient vertices are connected originals.
	for qa := 0; qa < q.NumVertices(); qa++ {
		for _, qb := range q.Neighbors(int32(qa)) {
			if origLabels[reps[qa]] != origLabels[reps[qb]] {
				t.Fatal("quotient edge joins different original components")
			}
		}
	}
}

// TestContractMatchesReference compares the quotient's adjacency lists with
// a map-based reference on labelings that fold many original edges onto each
// inter-class pair, so deduplication does real work.
func TestContractMatchesReference(t *testing.T) {
	g := Union(RandomGraph(3000, 8, 5), LineGraph(400, 6))
	d, err := Decompose(g, DecompOptions{Beta: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	modular := make([]int32, g.NumVertices())
	for v := range modular {
		modular[v] = int32(v % 37) // class representative v%37 is itself canonical
	}
	for name, labels := range map[string][]int32{"modular": modular, "decomposition": d.Labels} {
		for _, procs := range []int{1, 4} {
			q, reps, err := Contract(g, labels, procs)
			if err != nil {
				t.Fatal(err)
			}
			index := make(map[int32]int32, len(reps))
			for i, r := range reps {
				if labels[r] != r || (i > 0 && reps[i-1] >= r) {
					t.Fatalf("%s procs=%d: reps[%d]=%d is not the next canonical vertex", name, procs, i, r)
				}
				index[r] = int32(i)
			}
			want := make([]map[int32]bool, len(reps))
			for i := range want {
				want[i] = make(map[int32]bool)
			}
			dups := 0
			for v := 0; v < g.NumVertices(); v++ {
				a := index[labels[v]]
				for _, w := range g.Neighbors(int32(v)) {
					if b := index[labels[w]]; a != b {
						if want[a][b] {
							dups++
						}
						want[a][b] = true
					}
				}
			}
			if dups == 0 {
				t.Fatalf("%s: no duplicate inter-class edges; the case does not exercise dedup", name)
			}
			if q.NumVertices() != len(reps) {
				t.Fatalf("%s procs=%d: quotient n=%d, reps %d", name, procs, q.NumVertices(), len(reps))
			}
			for a := range want {
				got := q.Neighbors(int32(a))
				exp := make([]int32, 0, len(want[a]))
				for b := range want[a] {
					exp = append(exp, b)
				}
				slices.Sort(exp)
				if !slices.Equal(got, exp) {
					t.Fatalf("%s procs=%d: quotient vertex %d adjacent to %v, want %v", name, procs, a, got, exp)
				}
			}
		}
	}
}

func TestContractRejectsBadLabels(t *testing.T) {
	g := LineGraph(4, 1)
	if _, _, err := Contract(g, []int32{0, 0}, 0); err == nil {
		t.Fatal("short labels accepted")
	}
	if _, _, err := Contract(g, []int32{0, 0, 9, 9}, 0); err == nil {
		t.Fatal("out-of-range labels accepted")
	}
	if _, _, err := Contract(g, []int32{1, 0, 2, 3}, 0); err == nil {
		t.Fatal("non-canonical labels accepted")
	}
}

func TestBFSLine(t *testing.T) {
	g, err := NewGraph(5, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		res, err := BFS(g, 0, procs)
		if err != nil {
			t.Fatal(err)
		}
		wantDist := []int32{0, 1, 2, 3, -1}
		for v, w := range wantDist {
			if res.Dist[v] != w {
				t.Fatalf("procs=%d: dist[%d]=%d want %d", procs, v, res.Dist[v], w)
			}
		}
		if res.Visited != 4 || res.Rounds != 4 {
			t.Fatalf("procs=%d: visited=%d rounds=%d", procs, res.Visited, res.Rounds)
		}
		if res.Parent[0] != 0 || res.Parent[4] != -1 {
			t.Fatal("parents wrong at endpoints")
		}
		// Parent pointers walk back to the source with decreasing distance.
		for v := int32(1); v <= 3; v++ {
			p := res.Parent[v]
			if res.Dist[p] != res.Dist[v]-1 {
				t.Fatalf("parent of %d has distance %d", v, res.Dist[p])
			}
		}
	}
}

func TestBFSMatchesReference(t *testing.T) {
	g := RMatGraph(10, RMatOptions{EdgeFactor: 5, Seed: 6})
	want := graph.BFSDistances(g.g, 17)
	for _, procs := range []int{1, 4} {
		res, err := BFS(g, 17, procs)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if res.Dist[v] != want[v] {
				t.Fatalf("procs=%d: dist[%d]=%d want %d", procs, v, res.Dist[v], want[v])
			}
		}
	}
}

func TestBFSBadSource(t *testing.T) {
	g := LineGraph(3, 1)
	if _, err := BFS(g, -1, 0); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := BFS(g, 3, 0); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}
