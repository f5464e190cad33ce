package parconn

import (
	"fmt"

	"parconn/internal/decomp"
	"parconn/internal/hashtable"
	"parconn/internal/parallel"
)

// SpannerOptions configures Spanner.
type SpannerOptions struct {
	// Beta trades size for stretch: the spanner has at most
	// n - 1 + 2*beta*m expected edges and stretch O(log n / beta). Zero
	// means 0.1.
	Beta float64
	// Seed makes the construction reproducible.
	Seed uint64
	// Procs bounds parallelism; <= 0 means all cores.
	Procs int
}

// Spanner builds an O(log n / beta)-stretch spanner of g using one
// low-diameter decomposition — the classic application of Miller et al.
// decompositions the paper's introduction cites (low-stretch subgraphs for
// SDD solvers, metric embeddings):
//
//   - the BFS trees the decomposition grows inside each cluster (the claim
//     edges) connect every vertex to its center along a shortest path, and
//   - one representative original edge is kept for every pair of adjacent
//     clusters.
//
// Any edge (u,v) of g is then stretched by at most 2·radius + 1 inside the
// spanner (up u's tree, across the representative edge, down v's tree),
// and the radius is O(log n / beta) w.h.p., so the result is an
// O(log n / beta)-spanner with n - 1 + 2*beta*m expected edges. The
// returned edges are a subset of g's edges.
func Spanner(g *Graph, opt SpannerOptions) ([]Edge, error) {
	if opt.Beta == 0 {
		opt.Beta = 0.1
	}
	procs := parallel.Procs(opt.Procs)
	n := g.NumVertices()
	if n == 0 {
		return nil, nil
	}
	pool := parallel.Default()
	w := decomp.NewWGraph(pool, procs, g.g)
	res, err := decomp.Decompose(w, decomp.Arb, decomp.Options{
		Beta: opt.Beta, Seed: opt.Seed, Procs: procs, WantParents: true, Pool: pool,
	})
	if err != nil {
		return nil, err
	}
	clusters := res.Labels

	// Tree edges: every non-center vertex contributes its claim edge.
	edges := make([]Edge, 0, n)
	for v := 0; v < n; v++ {
		if p := res.Parents[v]; p != int32(v) {
			edges = append(edges, Edge{U: p, V: int32(v)})
		}
	}

	// Representative inter-cluster edges: the working graph's surviving
	// entries are (source vertex v, target cluster D); pick one per
	// unordered cluster pair via the hash set, then recover a concrete
	// original edge by rescanning v's adjacency for a neighbor in D.
	seen := hashtable.NewSet(pool, procs, int(w.LiveEdges(pool, procs))+1)
	for v := 0; v < n; v++ {
		cv := clusters[v]
		base := w.Offs[v]
		for i := int64(0); i < int64(w.Deg[v]); i++ {
			d := w.Adj[base+i]
			a, b := cv, d
			if a > b {
				a, b = b, a
			}
			if !seen.Insert(uint64(uint32(a))<<32 | uint64(uint32(b))) {
				continue // this cluster pair already has a representative
			}
			found := false
			for _, u := range g.Neighbors(int32(v)) {
				if clusters[u] == d {
					edges = append(edges, Edge{U: int32(v), V: u})
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("parconn: internal error: no original edge behind cluster pair (%d,%d)", a, b)
			}
		}
	}
	return edges, nil
}
