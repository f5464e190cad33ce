package baseline

import (
	"sync/atomic"

	"parconn/internal/graph"
	"parconn/internal/parallel"
)

// ParallelSFVerify is the verification-based spanning-forest connectivity
// of Patwary, Refsnes, Manne — the paper's §5 mentions it alongside the
// lock-based variant but uses the latter because the original
// verification-based code "sometimes fails to terminate". This
// implementation keeps the verification structure (lock-free speculative
// unions, then re-verification of edges that may have been lost) but links
// strictly from higher root to lower root with plain atomic stores, which
// makes parent values monotonically decreasing: cycles are impossible and
// termination is guaranteed — every round either unites at least two trees
// or certifies that no crossing edges remain.
func ParallelSFVerify(pool *parallel.Pool, procs int, g *graph.Graph) []int32 {
	n := g.N
	parent := make([]int32, n)
	parallel.Iota(pool, procs, parent)
	find := func(x int32) int32 {
		for {
			p := atomic.LoadInt32(&parent[x])
			if p == x {
				return x
			}
			gp := atomic.LoadInt32(&parent[p])
			if gp != p {
				atomic.CompareAndSwapInt32(&parent[x], p, gp)
			}
			x = p
		}
	}
	// The work list holds the directed edges still possibly crossing trees,
	// packed as (u<<32 | w). Rounds: speculative union pass (races may lose
	// some links), then a verification pass keeps only the edges whose
	// endpoints still differ.
	work := make([]uint64, 0, g.NumDirected()/2)
	for u := 0; u < g.N; u++ {
		for _, w := range g.Neighbors(int32(u)) {
			if w > int32(u) {
				work = append(work, uint64(uint32(u))<<32|uint64(uint32(w)))
			}
		}
	}
	for len(work) > 0 {
		// Speculative pass: plain store of the link. Concurrent stores to
		// the same root can overwrite each other (that is the "lost
		// update" the verification pass repairs), but because every store
		// writes a strictly smaller value into a root slot, the parent
		// forest stays acyclic and find() always terminates.
		pool.Blocks(procs, len(work), 512, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				u := int32(work[i] >> 32)
				w := int32(uint32(work[i]))
				ru, rw := find(u), find(w)
				if ru == rw {
					continue
				}
				if ru < rw {
					ru, rw = rw, ru
				}
				// Re-check ru is still a root, then link high under low.
				if atomic.LoadInt32(&parent[ru]) == ru {
					atomic.StoreInt32(&parent[ru], rw)
				}
			}
		})
		// Verification pass: drop edges whose endpoints merged; whatever
		// survives is retried. Progress argument: consider the minimum
		// surviving edge's two roots; some store to the higher root
		// happened (plain stores always land), and stores only write
		// strictly smaller roots, so the total root count drops every
		// round in which work is non-empty.
		work = parallel.Pack(pool, procs, work, func(i int) bool {
			u := int32(work[i] >> 32)
			w := int32(uint32(work[i]))
			return find(u) != find(w)
		})
	}
	return findAll(pool, procs, n, find)
}
