package parconn

import (
	"fmt"
	"sync/atomic"

	"parconn/internal/parallel"
)

// BFSResult is the output of a breadth-first search.
type BFSResult struct {
	// Dist[v] is the hop distance from the source, or -1 if unreachable.
	Dist []int32
	// Parent[v] is v's BFS-tree parent, the source's own id at the source,
	// and -1 if unreachable.
	Parent []int32
	// Visited is the number of reached vertices (including the source).
	Visited int
	// Rounds is the number of BFS levels explored.
	Rounds int
}

// BFS runs a parallel level-synchronous breadth-first search from src —
// the primitive the paper's decomposition multiplexes (§2). procs <= 0
// means all cores.
func BFS(g *Graph, src int32, procs int) (*BFSResult, error) {
	n := g.NumVertices()
	if src < 0 || int(src) >= n {
		return nil, fmt.Errorf("parconn: BFS source %d out of range [0,%d)", src, n)
	}
	procs = parallel.Procs(procs)
	res := &BFSResult{
		Dist:   make([]int32, n),
		Parent: make([]int32, n),
	}
	pool := parallel.Default()
	parallel.Fill(pool, procs, res.Dist, int32(-1))
	parallel.Fill(pool, procs, res.Parent, int32(-1))
	res.Dist[src] = 0
	res.Parent[src] = src
	res.Visited = 1

	cur := make([]int32, 1, n)
	cur[0] = src
	nxt := make([]int32, n)
	for d := int32(1); len(cur) > 0; d++ {
		k := 0
		// Sequential frontier expansion under procs==1, parallel with
		// per-vertex CAS-free claiming otherwise (Dist doubles as the
		// visited marker; each vertex is claimed exactly once because
		// claims only happen from the current level).
		if procs == 1 {
			for _, v := range cur {
				for _, w := range g.Neighbors(v) {
					if res.Dist[w] == -1 {
						res.Dist[w] = d
						res.Parent[w] = v
						nxt[k] = w
						k++
					}
				}
			}
		} else {
			k = bfsLevelParallel(pool, procs, g, res, cur, nxt, d)
		}
		cur = append(cur[:0], nxt[:k]...)
		res.Visited += k
		res.Rounds++
	}
	return res, nil
}

// bfsLevelParallel expands one BFS level with CAS claiming; each block
// stages its claims and appends them to nxt in batches.
func bfsLevelParallel(pool *parallel.Pool, procs int, g *Graph, res *BFSResult, cur, nxt []int32, d int32) int {
	var cursor atomic.Int64
	pool.Blocks(procs, len(cur), 256, func(lo, hi int) {
		out := parallel.NewAppender(nxt, &cursor)
		for fi := lo; fi < hi; fi++ {
			v := cur[fi]
			for _, w := range g.Neighbors(v) {
				if claim(res.Dist, w, d) {
					res.Parent[w] = v
					out.Push(w)
				}
			}
		}
		out.Flush()
	})
	return int(cursor.Load())
}

// claim atomically marks w visited at distance d; it reports whether this
// caller won the claim (Dist doubles as the visited marker).
func claim(dist []int32, w, d int32) bool {
	return atomic.LoadInt32(&dist[w]) == -1 &&
		atomic.CompareAndSwapInt32(&dist[w], -1, d)
}
