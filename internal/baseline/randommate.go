package baseline

import (
	"sync/atomic"

	"parconn/internal/graph"
	"parconn/internal/parallel"
	"parconn/internal/prand"
)

// RandomMateCC is the random-mate contraction algorithm (Reif 1985;
// Phillips 1989), the other classic super-linear-work family the paper's
// introduction contrasts against: each round every current root flips a
// coin; tails hook onto adjacent heads, eliminating a constant fraction of
// the roots in expectation, so O(log n) rounds w.h.p. — but every round
// rescans all m edges, for O(m log n) expected work.
func RandomMateCC(pool *parallel.Pool, procs int, g *graph.Graph, seed uint64) []int32 {
	n := g.N
	p := make([]int32, n)
	parallel.Iota(pool, procs, p)
	if n == 0 {
		return p
	}
	var hooked atomic.Bool
	for round := uint64(1); ; round++ {
		// coin(v): true = head. Derived from (seed, round, root id) so the
		// run is reproducible and roots flip independently each round.
		coin := func(v int32) bool {
			return prand.Hash64(seed^round<<32^uint64(uint32(v)))&1 == 0
		}
		hooked.Store(false)
		// Hook: tails link onto adjacent heads. p is flat at the top of
		// each round, so p[v] is v's root; heads never move this round, so
		// a single CAS per tail-root suffices and no chains can form.
		pool.Blocks(procs, n, 256, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				rv := atomic.LoadInt32(&p[v])
				if coin(rv) { // head roots do not hook
					continue
				}
				for _, w := range g.Neighbors(int32(v)) {
					rw := atomic.LoadInt32(&p[w])
					if rw != rv && coin(rw) {
						if atomic.CompareAndSwapInt32(&p[rv], rv, rw) {
							hooked.Store(true)
						}
						break // rv is no longer a root either way
					}
				}
			}
		})
		if !hooked.Load() {
			// No tail found a head neighbor. Either all components are
			// fully contracted (every edge internal), or this round's coins
			// were unlucky; distinguish by scanning for a crossing edge.
			if !anyCrossingEdge(pool, procs, g, p) {
				break
			}
			continue
		}
		// Flatten: pointer-jump until every vertex points at its root.
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
	}
	// Canonicalize: roots are arbitrary vertices; relabel every component
	// to its root id (already true — p is flat and constant per component).
	return p
}

// anyCrossingEdge reports whether some edge joins two different trees.
func anyCrossingEdge(pool *parallel.Pool, procs int, g *graph.Graph, p []int32) bool {
	var found atomic.Bool
	pool.Blocks(procs, g.N, 1024, func(lo, hi int) {
		if found.Load() {
			return
		}
		for v := lo; v < hi; v++ {
			pv := p[v]
			for _, w := range g.Neighbors(int32(v)) {
				if p[w] != pv {
					found.Store(true)
					return
				}
			}
		}
	})
	return found.Load()
}
