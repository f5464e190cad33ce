package decomp

import (
	"parconn/internal/graph"
	"parconn/internal/parallel"
	"parconn/internal/workspace"
)

// WGraph is the mutable working graph the decomposition runs on: the
// paper's V/E/D representation (§4). Offs are fixed for the lifetime of one
// decomposition call; Adj entries are overwritten in place as intra-component
// edges are deleted and inter-component targets relabeled; Deg[v] tracks how
// many live edges remain at the front of v's segment.
type WGraph struct {
	N    int
	Offs []int64 // length N+1, frozen
	Adj  []int32 // mutated in place
	Deg  []int32 // live-edge counts; Deg[v] <= Offs[v+1]-Offs[v]
}

// NewWGraph copies g into a fresh working graph, on pool p.
func NewWGraph(p *parallel.Pool, procs int, g *graph.Graph) *WGraph {
	w := &WGraph{}
	var c wgraphCopy
	c.run(p, w, g, procs, make([]int32, len(g.Adj)), make([]int32, g.N))
	return w
}

// InitWGraph fills w as a working copy of g with Adj/Deg acquired from ws,
// on pool — the recycling variant of NewWGraph, whose copy bodies are bound
// once per Scratch. Offs is shared with g (it is frozen), so when releasing
// w only Adj and Deg go back to the arena.
func (s *Scratch) InitWGraph(w *WGraph, pool *parallel.Pool, ws *workspace.Arena, g *graph.Graph, procs int) {
	s.copier.run(pool, w, g, procs, ws.Int32(len(g.Adj)), ws.Int32(g.N))
}

// wgraphCopy fills a working graph from its input: the adjacency copy in
// uniform edge blocks and the degrees in uniform vertex blocks, two
// sections on the caller's pool through bodies bound on first use.
type wgraphCopy struct {
	w            *WGraph
	g            *graph.Graph
	fnAdj, fnDeg func(lo, hi int)
}

func (c *wgraphCopy) bind() {
	c.fnAdj = func(lo, hi int) {
		copy(c.w.Adj[lo:hi], c.g.Adj[lo:hi])
	}
	c.fnDeg = func(lo, hi int) {
		offs, deg := c.g.Offs, c.w.Deg
		for v := lo; v < hi; v++ {
			deg[v] = int32(offs[v+1] - offs[v])
		}
	}
}

func (c *wgraphCopy) run(pool *parallel.Pool, w *WGraph, g *graph.Graph, procs int, adj, deg []int32) {
	*w = WGraph{N: g.N, Offs: g.Offs, Adj: adj, Deg: deg} // offsets are never mutated; share them
	if c.fnAdj == nil {
		c.bind()
	}
	c.w, c.g = w, g
	pool.Blocks(procs, len(g.Adj), 0, c.fnAdj)
	pool.Blocks(procs, g.N, 0, c.fnDeg)
	c.w, c.g = nil, nil
}

// LiveEdges returns the current number of live directed edges (sum of Deg),
// summed on pool p. CC does not call it per level (the decomposition
// machines report Result.EdgesOut from their classification passes
// instead), and after a hybrid level that dropped a ball's lists it falls
// short of the cut (see Result.Dropped); its caller is the spanner, whose
// Arb decomposition keeps every list.
func (w *WGraph) LiveEdges(p *parallel.Pool, procs int) int64 {
	if parallel.Procs(procs) == 1 || w.N < parallel.DefaultGrain {
		var total int64
		for _, d := range w.Deg {
			total += int64(d)
		}
		return total
	}
	return parallel.MapReduce(p, procs, w.N, func(v int) int64 { return int64(w.Deg[v]) })
}
