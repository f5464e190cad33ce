package decomp

import (
	"fmt"
	"slices"
	"testing"

	"parconn/internal/graph"
	"parconn/internal/obs"
	"parconn/internal/parallel"
)

// preFilter is a Recorder that copies the working graph's degrees and
// adjacency at every Round event. The hybrid emits its last Round event
// between its last round and filterEdges, so the final copy is the state
// filterEdges starts from.
type preFilter struct {
	*obs.Trace
	w        *WGraph
	deg, adj []int32
}

func (p *preFilter) Round(e obs.Round) {
	p.Trace.Round(e)
	p.deg, p.adj = slices.Clone(p.w.Deg), slices.Clone(p.w.Adj)
}

// The two list kinds filterEdges can meet.
const (
	rawList    = iota // no sparse round processed it: the level's input list
	sparseList        // classified by a sparse round (degree complemented)
)

// listKind classifies v's list in the pre-filter copy p. Only a sparse round
// writes a list before filterEdges, so a list with a non-negative degree
// must still be v's whole input list in g0: no list is mixed.
func (p *preFilter) listKind(t *testing.T, g0 *graph.Graph, v int32) int {
	t.Helper()
	d := p.deg[v]
	if d < 0 {
		return sparseList
	}
	in := g0.Neighbors(v)
	if int(d) != len(in) || !slices.Equal(p.adj[g0.Offs[v]:g0.Offs[v]+int64(d)], in) {
		t.Fatalf("vertex %d enters filterEdges with degree %d, not its input list of %d edges", v, d, len(in))
	}
	return rawList
}

// TestHybridDropsLargestBall runs the hybrid with dense thresholds low
// enough to go dense on rMat, random and grid inputs, at 1, 2 and 4 workers.
// Every level that went dense must drop a ball whose lists are empty
// afterwards and still meet the one-sided contract (checkDecomposition).
// Every list entering filterEdges must be raw or sparse-classified, and
// across the sweep the dropped balls must have held both kinds, so
// filterEdges drops each of them. A line never goes dense and drops
// nothing.
func TestHybridDropsLargestBall(t *testing.T) {
	inputs := map[string]*graph.Graph{
		"rmat-dup": graph.RMat(12, graph.RMatOptions{EdgeFactor: 8, Seed: 3, KeepDuplicates: true}),
		"random":   graph.Random(4000, 5, 6),
		"grid3d":   graph.Grid3D(14, 2),
		"union":    graph.Components(graph.RMat(10, graph.RMatOptions{EdgeFactor: 5, Seed: 4}), graph.Star(800), graph.Line(1000, 2)),
	}
	var kinds [2]int
	for name, g := range inputs {
		for _, frac := range []float64{0.01, 0.001} {
			for _, procs := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/densefrac=%g/procs=%d", name, frac, procs), func(t *testing.T) {
					pool := parallel.NewPool(procs)
					defer pool.Close()
					w := NewWGraph(pool, procs, g)
					rec := &preFilter{Trace: obs.NewTrace(), w: w}
					res, err := Decompose(w, ArbHybrid, Options{
						Procs: procs, Seed: 5, DenseFrac: frac, Pool: pool, Recorder: rec,
					})
					if err != nil {
						t.Fatal(err)
					}
					checkDecomposition(t, g, w, res, rec.Rounds())
					dense := slices.ContainsFunc(rec.Rounds(), func(r obs.Round) bool { return r.Dense })
					drop := res.Dropped()
					if dense != (drop != NoBall) {
						t.Fatalf("dense rounds %v, but dropped ball %d", dense, drop)
					}
					for v, l := range res.Labels {
						if k := rec.listKind(t, g, int32(v)); l == drop {
							kinds[k]++
						}
					}
				})
			}
		}
	}
	if kinds[rawList] == 0 || kinds[sparseList] == 0 {
		t.Fatalf("dropped balls held raw/sparse lists %v; want both kinds", kinds)
	}

	g := graph.Line(3000, 4)
	w := NewWGraph(parallel.Default(), 2, g)
	res, err := Decompose(w, ArbHybrid, Options{Procs: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkDecomposition(t, g, w, res, nil)
	if res.Dropped() != NoBall {
		t.Fatalf("a line never goes dense, yet ball %d was dropped", res.Dropped())
	}
}

// TestLargestBall checks the sampled mode: the most frequent label of the
// sample, ties to the smaller label, on inputs shorter and longer than the
// sample.
func TestLargestBall(t *testing.T) {
	for _, c := range []struct {
		labels []int32
		want   int32
	}{
		{[]int32{7}, 7},
		{[]int32{3, 0, 3}, 3},
		{[]int32{5, 5, 2, 2}, 2},
		{runs(9, 3000, 0, 1000), 9},
		{runs(1, 500, 4, 600), 4},
	} {
		if got := largestBall(c.labels); got != c.want {
			t.Errorf("largestBall of %d labels = %d, want %d", len(c.labels), got, c.want)
		}
	}
}

// runs returns na copies of a followed by nb copies of b.
func runs(a int32, na int, b int32, nb int) []int32 {
	s := make([]int32, 0, na+nb)
	for range na {
		s = append(s, a)
	}
	for range nb {
		s = append(s, b)
	}
	return s
}
