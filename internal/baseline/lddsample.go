package baseline

import (
	"parconn/internal/decomp"
	"parconn/internal/graph"
	"parconn/internal/parallel"
	"parconn/internal/unionfind"
)

// LDDSampledCC combines one round of the paper's low-diameter decomposition
// with a union-find finish, instead of recursing on the contracted graph:
// the decomposition clusters the graph and leaves exactly the
// inter-cluster edges behind (2*beta*m expected), and a concurrent
// union-find merges clusters across those — no contraction, relabeling, or
// recursion. This is the "LDD sampling + finish" point in the design space
// that the ConnectIt framework (by the paper's authors' group) later showed
// to be among the fastest practical schemes; it inherits the
// decomposition's linear-work sampling phase while the finish touches only
// the cut.
func LDDSampledCC(pool *parallel.Pool, procs int, g *graph.Graph, beta float64, seed uint64) ([]int32, error) {
	if beta == 0 {
		beta = decomp.DefaultBeta
	}
	w := decomp.NewWGraph(pool, procs, g)
	res, err := decomp.Decompose(w, decomp.Arb, decomp.Options{Beta: beta, Seed: seed, Procs: procs, Pool: pool})
	if err != nil {
		return nil, err
	}
	clusters := res.Labels
	u := unionfind.NewConcurrent(g.N)
	// Merge every vertex into its cluster...
	pool.Blocks(procs, g.N, 512, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if c := clusters[v]; c != int32(v) {
				u.Union(int32(v), c)
			}
		}
	})
	// ...then merge clusters across the surviving inter-cluster edges
	// (targets were relabeled to cluster centers by the decomposition).
	pool.Blocks(procs, g.N, 512, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			base := w.Offs[v]
			for i := int64(0); i < int64(w.Deg[v]); i++ {
				u.Union(int32(v), w.Adj[base+i])
			}
		}
	})
	return findAll(pool, procs, g.N, u.Find), nil
}
