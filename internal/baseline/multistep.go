package baseline

import (
	"sync/atomic"

	"parconn/internal/graph"
	"parconn/internal/parallel"
)

// MultistepCC is the algorithm of Slota, Rajamanickam, Madduri (IPDPS'14)
// as described in the paper's §5: a direction-optimizing BFS computes the
// component of a highest-degree vertex (on most inputs, the giant
// component), then label propagation finishes the remaining vertices. In
// the worst case the label propagation is quadratic work and linear depth.
func MultistepCC(pool *parallel.Pool, procs int, g *graph.Graph) []int32 {
	n := g.N
	labels := make([]int32, n)
	parallel.Fill(pool, procs, labels, int32(-1))
	if n == 0 {
		return labels
	}
	// Seed the BFS from a maximum-degree vertex: the cheapest reliable
	// guess at the giant component.
	seed := int32(0)
	for v := 1; v < n; v++ {
		if g.Degree(int32(v)) > g.Degree(seed) {
			seed = int32(v)
		}
	}
	st := newBFSState(n, 0.05)
	st.run(pool, procs, g, labels, seed, seed)

	// Remaining vertices: label propagation restricted to the residue (no
	// vertex in the residue can be adjacent to the BFS'd component, or the
	// BFS would have claimed it).
	active := parallel.PackIndex(pool, procs, n, func(v int) bool { return labels[v] == -1 })
	pool.For(procs, len(active), func(i int) { labels[active[i]] = active[i] })
	labelProp(pool, procs, g, labels, active)
	return labels
}

// LabelPropCC is pure label propagation over the whole graph — the
// connectivity algorithm in the graph-processing systems the paper cites
// (Pegasus, GraphChi, Ligra's example, ...). Depth is proportional to
// component diameter and the work is not linear; it is here as the
// graph-systems baseline.
func LabelPropCC(pool *parallel.Pool, procs int, g *graph.Graph) []int32 {
	labels := make([]int32, g.N)
	parallel.Iota(pool, procs, labels)
	active := make([]int32, g.N)
	parallel.Iota(pool, procs, active)
	labelProp(pool, procs, g, labels, active)
	return labels
}

// labelProp runs push-based min-label propagation until a fixpoint: each
// round, every active vertex writeMins its label onto its neighbors;
// vertices whose label dropped become active in the next round. At the
// fixpoint every component carries its minimum vertex id.
func labelProp(pool *parallel.Pool, procs int, g *graph.Graph, labels []int32, active []int32) {
	n := g.N
	if len(active) == 0 {
		return
	}
	nxt := make([]int32, n)
	stamp := make([]int32, n) // round at which a vertex was last activated
	parallel.Fill(pool, procs, stamp, int32(-1))
	var cursor atomic.Int64
	for round := int32(0); len(active) > 0; round++ {
		cursor.Store(0)
		pool.Blocks(procs, len(active), 256, func(lo, hi int) {
			out := parallel.NewAppender(nxt, &cursor)
			for i := lo; i < hi; i++ {
				v := active[i]
				lv := atomic.LoadInt32(&labels[v])
				for _, w := range g.Neighbors(v) {
					if writeMin32(&labels[w], lv) {
						// w's label dropped: schedule it, once per round.
						if atomic.LoadInt32(&stamp[w]) != round &&
							atomic.SwapInt32(&stamp[w], round) != round {
							out.Push(w)
						}
					}
				}
			}
			out.Flush()
		})
		k := int(cursor.Load())
		active = active[:0]
		if cap(active) < k {
			active = make([]int32, 0, k)
		}
		active = append(active, nxt[:k]...)
	}
}
