package decomp

import (
	"sync/atomic"

	"parconn/internal/parallel"
)

// processEdgesParallel handles one high-degree frontier vertex by scanning
// its live edge segment with a nested parallel loop, marking deleted edges
// with a sentinel, and packing the survivors — the optional optimization
// sketched at the end of §4. It implements exactly the semantics of the
// sequential Arb inner loop. Both sections run on pool, the run's own.
//
// The deletion sentinel is -1: surviving entries are component ids, which
// are always >= 0 at this point of the algorithm. Returns the number of
// surviving (inter-component) edges, which is v's final live degree.
func processEdgesParallel(pool *parallel.Pool, g *WGraph, c, parents []int32, v, cv int32, nxt []int32, cursor *atomic.Int64, procs int) int64 {
	start := g.Offs[v]
	seg := g.Adj[start : start+int64(g.Deg[v])]
	pool.Blocks(procs, len(seg), 4096, func(lo, hi int) {
		out := parallel.NewAppender(nxt, cursor)
		for i := lo; i < hi; i++ {
			w := seg[i]
			if atomic.LoadInt32(&c[w]) == unvisited &&
				atomic.CompareAndSwapInt32(&c[w], unvisited, cv) {
				if parents != nil {
					parents[w] = v
				}
				out.Push(w)
				seg[i] = -1 // claimed: intra-component, delete
			} else if cw := atomic.LoadInt32(&c[w]); cw != cv {
				seg[i] = cw // inter-component: keep, relabeled
			} else {
				seg[i] = -1 // intra-component, delete
			}
		}
		out.Flush()
	})
	//parconn:allow hotalloc pack predicate closure is the documented per-call cost of the optional edge-parallel path
	kept := parallel.Pack(pool, procs, seg, func(i int) bool { return seg[i] >= 0 })
	copy(seg, kept)
	//parconn:allow conversioncheck kept is a subset of seg, whose length came from the int32 g.Deg[v]
	g.Deg[v] = int32(len(kept))
	return int64(len(kept))
}
