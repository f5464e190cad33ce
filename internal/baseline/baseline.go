// Package baseline implements the comparison connectivity algorithms from
// the paper's evaluation (§5):
//
//	serial-SF          sequential spanning-forest connectivity via union-find
//	parallel-SF-PBBS   CAS-based concurrent union-find spanning forest
//	                   (stand-in for the PBBS implementation; see DESIGN.md)
//	parallel-SF-PRM    lock-based spanning forest in the style of Patwary,
//	                   Refsnes, Manne (IPDPS'12)
//	hybrid-BFS-CC      direction-optimizing BFS (Beamer et al.) run on each
//	                   component one-by-one, as in Ligra
//	multistep-CC       Slota, Rajamanickam, Madduri (IPDPS'14): one BFS for
//	                   the (presumed) largest component, then label
//	                   propagation for the rest
//	labelprop-CC       pure label propagation, the algorithm in most graph
//	                   processing systems the paper cites
//	sv-CC              Shiloach-Vishkin hooking + pointer jumping, the
//	                   classic O(m log n) PRAM algorithm (related work)
//
// None of these are linear-work AND polylogarithmic-depth — that gap is the
// paper's motivation. All return labelings in the library's canonical form:
// labels[v] is a vertex id in v's component with labels[labels[v]] ==
// labels[v].
package baseline

import (
	"slices"
	"sync/atomic"

	"parconn/internal/graph"
	"parconn/internal/parallel"
	"parconn/internal/unionfind"
)

// SerialSF is the paper's sequential baseline: a spanning-forest
// connectivity using union-find with union by rank and path halving,
// followed by the root-finding pass the paper includes in its timings.
func SerialSF(g *graph.Graph) []int32 {
	u := unionfind.NewSerial(g.N)
	for v := 0; v < g.N; v++ {
		for _, w := range g.Neighbors(int32(v)) {
			if w > int32(v) { // each undirected edge once
				u.Union(int32(v), w)
			}
		}
	}
	labels := make([]int32, g.N)
	for v := range labels {
		labels[v] = u.Find(int32(v))
	}
	return labels
}

// ParallelSFPBBS is the CAS-based concurrent spanning-forest connectivity
// standing in for the PBBS implementation.
func ParallelSFPBBS(pool *parallel.Pool, procs int, g *graph.Graph) []int32 {
	u := unionfind.NewConcurrent(g.N)
	unionAllEdges(pool, procs, g, u.Union)
	return findAll(pool, procs, g.N, u.Find)
}

// ParallelSFPRM is the lock-based concurrent spanning-forest connectivity
// in the style of Patwary, Refsnes, Manne.
func ParallelSFPRM(pool *parallel.Pool, procs int, g *graph.Graph) []int32 {
	u := unionfind.NewLocked(g.N)
	unionAllEdges(pool, procs, g, u.Union)
	return findAll(pool, procs, g.N, u.Find)
}

func unionAllEdges(pool *parallel.Pool, procs int, g *graph.Graph, union func(int32, int32) bool) {
	pool.Blocks(procs, g.N, 256, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			for _, w := range g.Neighbors(int32(v)) {
				if w > int32(v) {
					union(int32(v), w)
				}
			}
		}
	})
}

func findAll(pool *parallel.Pool, procs, n int, find func(int32) int32) []int32 {
	labels := make([]int32, n)
	pool.For(procs, n, func(v int) { labels[v] = find(int32(v)) })
	return labels
}

// SpanningForest returns the edges of a spanning forest of g, computed with
// the concurrent union-find (one edge per successful union). The forest has
// exactly n - #components edges.
func SpanningForest(pool *parallel.Pool, procs int, g *graph.Graph) []graph.Edge {
	u := unionfind.NewConcurrent(g.N)
	procs = parallel.Procs(procs)
	bufs := make([][]graph.Edge, procs)
	pool.WorkerBlocks(procs, g.N, func(worker, lo, hi int) {
		var local []graph.Edge
		for v := lo; v < hi; v++ {
			for _, w := range g.Neighbors(int32(v)) {
				if w > int32(v) && u.Union(int32(v), w) {
					local = append(local, graph.Edge{U: int32(v), V: w})
				}
			}
		}
		bufs[worker] = local
	})
	return slices.Concat(bufs...)
}

// writeMin32 atomically lowers *loc to val if val is smaller, reporting
// whether it changed *loc.
func writeMin32(loc *int32, val int32) bool {
	for {
		cur := atomic.LoadInt32(loc)
		if val >= cur {
			return false
		}
		if atomic.CompareAndSwapInt32(loc, cur, val) {
			return true
		}
	}
}
