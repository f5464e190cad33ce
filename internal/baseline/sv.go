package baseline

import (
	"sync/atomic"

	"parconn/internal/graph"
	"parconn/internal/parallel"
)

// ShiloachVishkinCC is the classic PRAM connectivity algorithm (Shiloach &
// Vishkin 1982) in its practical min-hooking form: alternate (1) hooking —
// every edge tries to lower the parent of its endpoint's root to the other
// endpoint's parent with a writeMin — and (2) pointer jumping until the
// parent forest is flat. The number of trees at least halves per round, so
// there are O(log n) rounds, but every round touches all m edges: O(m log n)
// work — the super-linear bound the paper's introduction contrasts against.
func ShiloachVishkinCC(pool *parallel.Pool, procs int, g *graph.Graph) []int32 {
	n := g.N
	p := make([]int32, n)
	parallel.Iota(pool, procs, p)
	if n == 0 {
		return p
	}
	var changed atomic.Bool
	for {
		changed.Store(false)
		// Hook: for every directed edge (v,w), try to lower the parent of
		// v's parent to w's parent. Monotone writeMin cannot create cycles
		// (values strictly decrease), and hooking through p[v] rather than
		// the true root is safe — pointer jumping repairs any chains.
		pool.Blocks(procs, n, 256, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				pv := atomic.LoadInt32(&p[v])
				for _, w := range g.Neighbors(int32(v)) {
					pw := atomic.LoadInt32(&p[w])
					if pw < pv {
						if writeMin32(&p[pv], pw) {
							changed.Store(true)
						}
					}
				}
			}
		})
		// Shortcut: pointer-jump until the forest is flat.
		for {
			var jumped atomic.Bool
			pool.Blocks(procs, n, 0, func(lo, hi int) {
				for v := lo; v < hi; v++ {
					pv := atomic.LoadInt32(&p[v])
					gp := atomic.LoadInt32(&p[pv])
					if gp != pv {
						atomic.StoreInt32(&p[v], gp)
						jumped.Store(true)
					}
				}
			})
			if !jumped.Load() {
				break
			}
		}
		if !changed.Load() {
			break
		}
	}
	return p
}
