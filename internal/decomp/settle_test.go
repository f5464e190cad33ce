package decomp

import (
	"fmt"
	"testing"

	"parconn/internal/graph"
	"parconn/internal/obs"
	"parconn/internal/parallel"
	"parconn/internal/workspace"
)

// tailSettledGraph returns an n-vertex graph whose last three start rounds
// under (beta, seed) hold only edgeless vertices: it draws the schedule the
// decomposition will draw, leaves the vertices of those rounds without
// edges, and pairs up the rest, so the frontier empties after every pair
// and the round loop fast-forwards between them up to the live end.
func tailSettledGraph(n int, beta float64, seed uint64) *graph.Graph {
	sh := newShiftDraw().newShifts(parallel.Default(), liveEntry(n), beta, seed, 1, workspace.New())
	cutoff := sh.end(len(sh.cum) - 4)
	live := append([]int32(nil), sh.order[:cutoff]...)
	var edges []graph.Edge
	for i := 0; i+1 < len(live); i += 2 {
		edges = append(edges, graph.Edge{U: live[i], V: live[i+1]})
	}
	return graph.FromEdges(n, edges, graph.BuildOptions{})
}

// TestSettleEdgeless checks the level-entry settle step on inputs where it
// carries most or all of the vertices: every edgeless vertex is its own
// center (and its own BFS parent), it is reported by one Round event before
// the first BFS round, the partitions refine the input's components, and
// the full decomposition contract holds, for every variant and worker
// count.
func TestSettleEdgeless(t *testing.T) {
	const beta, seed = 0.2, 7
	inputs := []struct {
		name string
		g    *graph.Graph
	}{
		{"all-edgeless", graph.FromEdges(5000, nil, graph.BuildOptions{})},
		{"rmat14-dups", graph.RMat(14, graph.RMatOptions{EdgeFactor: 5, Seed: 1, KeepDuplicates: true})},
		{"star+isolated", graph.Components(graph.Star(3000), graph.FromEdges(2000, nil, graph.BuildOptions{}))},
		{"tail-settled", tailSettledGraph(6000, beta, seed)},
	}
	for _, in := range inputs {
		g := in.g
		oracle := graph.RefCC(g)
		edgeless := 0
		for v := int32(0); v < int32(g.N); v++ {
			if g.Degree(v) == 0 {
				edgeless++
			}
		}
		if edgeless == 0 {
			t.Fatalf("%s: no edgeless vertices to settle", in.name)
		}
		for _, variant := range variants {
			for _, procs := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%s/procs=%d", in.name, variant, procs), func(t *testing.T) {
					pool := parallel.NewPool(procs)
					defer pool.Close()
					tr := obs.NewTrace()
					w := NewWGraph(parallel.Default(), procs, g)
					res, err := Decompose(w, variant, Options{
						Beta: beta, Seed: seed, Procs: procs, Pool: pool, Recorder: tr, WantParents: true,
					})
					if err != nil {
						t.Fatal(err)
					}
					rounds := tr.Rounds()
					checkDecomposition(t, g, w, res, rounds)
					if first := rounds[0]; first.Round != -1 || first.Frontier != edgeless || first.NewCenters != edgeless {
						t.Fatalf("first round event %+v, want round -1 settling %d vertices", first, edgeless)
					}
					for _, r := range rounds[1:] {
						if r.Round < 0 {
							t.Fatalf("settle event repeated: %+v", r)
						}
					}
					for v := int32(0); v < int32(g.N); v++ {
						l := res.Labels[v]
						if oracle[l] != oracle[v] {
							t.Fatalf("vertex %d shares partition %d across components", v, l)
						}
						if g.Degree(v) > 0 {
							continue
						}
						if l != v {
							t.Fatalf("edgeless vertex %d labeled %d", v, l)
						}
						if res.Parents != nil && res.Parents[v] != v {
							t.Fatalf("edgeless vertex %d has parent %d", v, res.Parents[v])
						}
					}
					if variant == Arb {
						for v, p := range res.Parents {
							if p < 0 || res.Labels[p] != res.Labels[v] {
								t.Fatalf("vertex %d has parent %d outside its partition", v, p)
							}
						}
					}
				})
			}
		}
	}
}
