package baseline

import (
	"sync/atomic"

	"parconn/internal/graph"
	"parconn/internal/parallel"
)

// bfsState carries the reusable scratch of the direction-optimizing BFS so
// that hybrid-BFS-CC can run one BFS per component without reallocating or
// clearing arrays between components: frontier-membership is tested with a
// global monotonically increasing round stamp.
type bfsState struct {
	frontRound []int32 // round at which a vertex was last on a frontier
	round      int32
	bufA, bufB []int32
	// denseFrac is the frontier fraction of n above which a level switches
	// to the read-based (bottom-up) pass.
	denseFrac float64
}

func newBFSState(n int, denseFrac float64) *bfsState {
	if denseFrac <= 0 {
		denseFrac = 0.05
	}
	st := &bfsState{
		frontRound: make([]int32, n),
		bufA:       make([]int32, n),
		bufB:       make([]int32, n),
		denseFrac:  denseFrac,
	}
	for i := range st.frontRound {
		st.frontRound[i] = -1
	}
	return st
}

// run visits the connected component of src, setting labels[w] = label for
// every vertex reached (labels must hold -1 for unvisited vertices), and
// returns the number of vertices visited. It is the direction-optimizing
// BFS of Beamer et al. as used by Ligra: write-based (top-down) levels with
// CAS claiming while the frontier is sparse, read-based (bottom-up) levels
// once it is dense.
func (st *bfsState) run(pool *parallel.Pool, procs int, g *graph.Graph, labels []int32, src, label int32) int {
	n := g.N
	//parconn:allow mixedatomic sequential seed write before any worker is forked; the Blocks fork publishes it
	labels[src] = label
	st.round++
	st.frontRound[src] = st.round
	cur := st.bufA
	cur[0] = src
	curN := 1
	nxt := st.bufB
	visited := 1
	threshold := int(st.denseFrac * float64(n))
	var cursor atomic.Int64
	for curN > 0 {
		r := st.round
		cursor.Store(0)
		if curN > threshold {
			// Bottom-up: every unvisited vertex scans for a neighbor on
			// the frontier and stops at the first hit.
			pool.Blocks(procs, n, 0, func(lo, hi int) {
				out := parallel.NewAppender(nxt, &cursor)
				for w := lo; w < hi; w++ {
					//parconn:allow mixedatomic bottom-up levels are read/owner-write only (Beamer); rounds are separated by fork-join barriers
					if labels[w] != -1 {
						continue
					}
					for _, u := range g.Neighbors(int32(w)) {
						if st.frontRound[u] == r {
							//parconn:allow mixedatomic only w's own iteration writes labels[w] in a bottom-up level
							labels[w] = label
							out.Push(int32(w))
							break
						}
					}
				}
				out.Flush()
			})
			newN := int(cursor.Load())
			pool.For(procs, newN, func(i int) { st.frontRound[nxt[i]] = r + 1 })
		} else {
			// Top-down: frontier vertices claim unvisited neighbors.
			front := cur[:curN]
			pool.Blocks(procs, curN, 256, func(lo, hi int) {
				out := parallel.NewAppender(nxt, &cursor)
				for fi := lo; fi < hi; fi++ {
					v := front[fi]
					for _, w := range g.Neighbors(v) {
						if atomic.LoadInt32(&labels[w]) == -1 &&
							atomic.CompareAndSwapInt32(&labels[w], -1, label) {
							st.frontRound[w] = r + 1
							out.Push(w)
						}
					}
				}
				out.Flush()
			})
		}
		curN = int(cursor.Load())
		visited += curN
		cur, nxt = nxt, cur
		st.round++
	}
	st.bufA, st.bufB = cur, nxt
	return visited
}

// HybridBFSCC labels components by running one direction-optimizing BFS per
// component, visiting components one at a time (the paper's hybrid-BFS-CC,
// built from Ligra's BFS). Work-efficient, but its depth is the sum of the
// component diameters — it degrades on graphs with many components and on
// high-diameter graphs, exactly as Table 2 shows.
func HybridBFSCC(pool *parallel.Pool, procs int, g *graph.Graph) []int32 {
	labels := make([]int32, g.N)
	parallel.Fill(pool, procs, labels, int32(-1))
	st := newBFSState(g.N, 0.05)
	for s := 0; s < g.N; s++ {
		if labels[s] == -1 {
			st.run(pool, procs, g, labels, int32(s), int32(s))
		}
	}
	return labels
}
