package decomp

import (
	"fmt"
	"slices"
	"testing"

	"parconn/internal/graph"
	"parconn/internal/obs"
	"parconn/internal/parallel"
	"parconn/internal/prand"
)

// claimFixture is a hand-built claim-loop state: the frontier is vertices
// 0..k-1 (each its own center), a third of the remaining vertices are
// already visited under some frontier vertex's label, and the rest are
// unvisited, so every list mixes claims, lost claims, deletions and kept
// inter-component edges. Vertex 0 is a hub adjacent to every vertex, its
// degree far beyond touchCap.
func claimFixture(k, n int) (*WGraph, []int32, []int32) {
	r := prand.New(uint64(k)*31 + uint64(n))
	var edges []graph.Edge
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{U: 0, V: int32(v)})
	}
	for i := 0; i < 3*n; i++ {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	g := NewWGraph(parallel.Default(), 1, graph.FromEdges(n, edges, graph.BuildOptions{}))
	c := make([]int32, n)
	cur := make([]int32, k)
	for v := range c {
		switch {
		case v < k:
			c[v], cur[v] = int32(v), int32(v)
		case v%3 == 0:
			c[v] = int32(r.Intn(k))
		default:
			c[v] = unvisited
		}
	}
	return g, c, cur
}

// refClaim is the claim loop without staging, serially: the semantics both
// staged loops must reproduce exactly. It returns the next frontier.
func refClaim(g *WGraph, c, cur []int32, complement bool) []int32 {
	var nxt []int32
	for _, v := range cur {
		cv, start := c[v], g.Offs[v]
		var k int64
		for i := int64(0); i < int64(g.Deg[v]); i++ {
			w := g.Adj[start+i]
			switch {
			case c[w] == unvisited:
				c[w] = cv
				nxt = append(nxt, w)
			case c[w] != cv:
				g.Adj[start+k] = c[w]
				k++
			}
		}
		g.Deg[v] = int32(k)
		if complement {
			g.Deg[v] = ^int32(k)
		}
	}
	return nxt
}

// TestStagedClaimMatchesReference runs one serial block of the hybrid's
// sparse pass and of Arb's main pass on frontiers of 1, 31, 32 and 33
// vertices — one short batch, one just below, at and above claimBatch —
// and checks that labels, lists, degrees and the next frontier equal the
// unstaged reference's. Arb is run with an edge-parallel cutoff below the
// hub's degree, so the hub takes the untouched edge-parallel path.
func TestStagedClaimMatchesReference(t *testing.T) {
	const n = 200
	for _, k := range []int{1, 31, 32, 33} {
		for _, variant := range []Variant{Arb, ArbHybrid} {
			t.Run(fmt.Sprintf("%s/frontier=%d", variant, k), func(t *testing.T) {
				hybrid := variant == ArbHybrid
				g, c, cur := claimFixture(k, n)
				if g.Deg[0] < 2*claimBatch { // 2*claimBatch > touchCap
					t.Fatalf("hub degree %d is below the touch cap or Arb's edge-parallel cutoff", g.Deg[0])
				}
				wantG, wantC := cloneWGraph(g), slices.Clone(c)
				wantNxt := refClaim(wantG, wantC, cur, hybrid)

				nxt := make([]int32, n)
				var got int
				if hybrid {
					m := newHybridMachine()
					m.g, m.c, m.cur, m.nxt = g, c, cur, nxt
					m.fnSparse(0, k)
					got = int(m.cursor.Load())
				} else {
					m := newArbMachine()
					m.procs, m.edgeParallel = 1, 2*claimBatch
					m.g, m.c, m.cur, m.nxt = g, c, cur, nxt
					m.fnMain(0, k)
					got = int(m.cursor.Load())
				}
				if !slices.Equal(nxt[:got], wantNxt) {
					t.Fatalf("next frontier %v, want %v", nxt[:got], wantNxt)
				}
				if !slices.Equal(c, wantC) {
					t.Fatal("labels differ from the unstaged reference")
				}
				if !slices.Equal(g.Deg, wantG.Deg) {
					t.Fatalf("degrees %v, want %v", g.Deg[:k], wantG.Deg[:k])
				}
				for v := 0; v < k; v++ {
					d := g.Deg[v]
					if hybrid {
						d = ^d
					}
					lo := g.Offs[v]
					if !slices.Equal(g.Adj[lo:lo+int64(d)], wantG.Adj[lo:lo+int64(d)]) {
						t.Fatalf("vertex %d keeps %v, want %v", v, g.Adj[lo:lo+int64(d)], wantG.Adj[lo:lo+int64(d)])
					}
				}
			})
		}
	}
}

func cloneWGraph(g *WGraph) *WGraph {
	return &WGraph{N: g.N, Offs: g.Offs, Adj: slices.Clone(g.Adj), Deg: slices.Clone(g.Deg)}
}

// TestHybridSparseDenseSparse runs the hybrid on a star joined with a line:
// the star's leaves make one frontier dense, the line's frontiers stay
// sparse before and after it. Degrees complemented by a sparse round must
// all be restored by filterEdges, and each DenseFrac and worker count must
// give a valid decomposition (checkDecomposition also sums the degrees
// against Result.EdgesOut).
func TestHybridSparseDenseSparse(t *testing.T) {
	g := graph.Components(graph.Star(6000), graph.Line(4000, 9))
	for _, frac := range []float64{0.01, 0.2, 0.5} {
		for _, procs := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("densefrac=%g/procs=%d", frac, procs), func(t *testing.T) {
				pool := parallel.NewPool(procs)
				defer pool.Close()
				tr := obs.NewTrace()
				w := NewWGraph(parallel.Default(), procs, g)
				res, err := Decompose(w, ArbHybrid, Options{
					Procs: procs, Seed: 11, DenseFrac: frac, Pool: pool, Recorder: tr,
				})
				if err != nil {
					t.Fatal(err)
				}
				rounds := tr.Rounds()
				checkDecomposition(t, g, w, res, rounds)
				// Look for sparse, then dense, then sparse again.
				step := 0
				for _, r := range rounds {
					if r.Dense == (step == 1) {
						step++
					}
					if step == 3 {
						break
					}
				}
				if step < 3 {
					t.Fatalf("rounds never went sparse→dense→sparse (reached step %d of 3)", step)
				}
			})
		}
	}
}
