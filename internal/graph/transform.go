package graph

import (
	"parconn/internal/parallel"
)

// InducedSubgraph returns the subgraph induced by the vertices with
// keep[v] == true, plus the mapping from new vertex ids to original ids,
// computed on pool p. Edges with either endpoint dropped are removed.
func InducedSubgraph(p *parallel.Pool, procs int, g *Graph, keep []bool) (*Graph, []int32) {
	if len(keep) != g.N {
		panic("graph: InducedSubgraph keep length mismatch")
	}
	newID := make([]int32, g.N)
	p.For(procs, g.N, func(v int) {
		if keep[v] {
			newID[v] = 1
		} else {
			newID[v] = 0
		}
	})
	var scan parallel.Scan[int32]
	k := int(scan.Exclusive(p, procs, newID, newID))
	orig := make([]int32, k)
	p.For(procs, g.N, func(v int) {
		if keep[v] {
			orig[newID[v]] = int32(v)
		}
	})
	// Gather surviving directed pairs in new-id space; they remain sorted
	// by construction order (old vertex order = new vertex order).
	var pairs []uint64
	for v := 0; v < g.N; v++ {
		if !keep[v] {
			continue
		}
		src := uint64(uint32(newID[v])) << 32
		for _, w := range g.Neighbors(int32(v)) {
			if keep[w] {
				pairs = append(pairs, src|uint64(uint32(newID[w])))
			}
		}
	}
	return FromDirectedPairs(p, procs, k, pairs, false), orig
}

// LargestComponent returns the subgraph induced by the largest connected
// component under labels, plus the new-to-original vertex mapping, computed
// on pool p. Ties are broken by the smaller label.
func LargestComponent(p *parallel.Pool, procs int, g *Graph, labels []int32) (*Graph, []int32) {
	sizes := ComponentSizesOf(labels)
	best := int32(-1)
	bestSize := -1
	for l, s := range sizes {
		if s > bestSize || (s == bestSize && l < best) {
			best, bestSize = l, s
		}
	}
	keep := make([]bool, g.N)
	for v := range keep {
		keep[v] = g.N > 0 && labels[v] == best
	}
	return InducedSubgraph(p, procs, g, keep)
}

// Degrees returns the degree sequence of g.
func Degrees(g *Graph) []int32 {
	out := make([]int32, g.N)
	for v := 0; v < g.N; v++ {
		out[v] = g.Degree(int32(v))
	}
	return out
}
