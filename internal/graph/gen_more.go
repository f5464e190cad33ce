package graph

import (
	"parconn/internal/parallel"
	"parconn/internal/prand"
)

// Additional generator families used by tests and ablations; the six
// paper inputs live in gen.go.

// Grid2D returns a 2-dimensional torus with side^2 vertices (4 neighbors
// each), labels permuted.
func Grid2D(side int, seed uint64) *Graph {
	if side <= 0 {
		return &Graph{N: 0, Offs: []int64{0}}
	}
	if side == 1 {
		return &Graph{N: 1, Offs: []int64{0, 0}}
	}
	n := side * side
	perm := prand.Permutation(n, seed)
	idx := func(x, y int) int32 { return perm[x*side+y] }
	edges := make([]Edge, 2*n)
	parallel.Default().Blocks(0, n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			x, y := v/side, v%side
			edges[2*v+0] = Edge{idx(x, y), idx((x+1)%side, y)}
			edges[2*v+1] = Edge{idx(x, y), idx(x, (y+1)%side)}
		}
	})
	return FromEdges(n, edges, BuildOptions{RemoveDuplicates: side == 2})
}

// CompleteBinaryTree returns a complete binary tree on n vertices (vertex i
// has children 2i+1, 2i+2), labels permuted. Trees stress the contraction
// path: every edge of every level is a cut or a claim, never a duplicate.
func CompleteBinaryTree(n int, seed uint64) *Graph {
	if n <= 0 {
		return &Graph{N: 0, Offs: []int64{0}}
	}
	perm := prand.Permutation(n, seed)
	edges := make([]Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{perm[(i-1)/2], perm[i]})
	}
	return FromEdges(n, edges, BuildOptions{})
}

// CliqueChain returns numCliques cliques of size cliqueSize, consecutive
// cliques joined by a single bridge edge — a worst case for duplicate-edge
// explosion under contraction (every clique contracts to one vertex with
// many parallel bridge copies... exactly one per bridge, but the intra
// edges all vanish at level 0, exercising the dedup paths).
func CliqueChain(numCliques, cliqueSize int, seed uint64) *Graph {
	if numCliques <= 0 || cliqueSize <= 0 {
		return &Graph{N: 0, Offs: []int64{0}}
	}
	n := numCliques * cliqueSize
	perm := prand.Permutation(n, seed)
	var edges []Edge
	for c := 0; c < numCliques; c++ {
		base := c * cliqueSize
		for i := 0; i < cliqueSize; i++ {
			for j := i + 1; j < cliqueSize; j++ {
				edges = append(edges, Edge{perm[base+i], perm[base+j]})
			}
		}
		if c > 0 {
			edges = append(edges, Edge{perm[base-1], perm[base]})
		}
	}
	return FromEdges(n, edges, BuildOptions{})
}

// PreferentialAttachment returns a Barabási–Albert-style graph: vertices
// arrive one at a time and attach k edges to endpoints sampled from the
// current edge list (i.e. proportionally to degree). Heavy-tailed like
// rMat, but with guaranteed connectivity — useful for distinguishing
// many-component effects from degree-skew effects in tests.
func PreferentialAttachment(n, k int, seed uint64) *Graph {
	if n <= 0 {
		return &Graph{N: 0, Offs: []int64{0}}
	}
	if k < 1 {
		k = 1
	}
	src := prand.New(seed)
	// targets doubles as the degree-proportional sampling pool: every
	// endpoint of every edge appears once.
	pool := make([]int32, 0, 2*n*k)
	edges := make([]Edge, 0, n*k)
	for v := 1; v < n; v++ {
		for e := 0; e < k; e++ {
			var w int32
			if len(pool) == 0 {
				w = int32(src.Intn(v))
			} else if src.Intn(2) == 0 {
				// Half uniform, half preferential keeps early graphs from
				// degenerating into a single hub.
				w = int32(src.Intn(v))
			} else {
				w = pool[src.Intn(len(pool))]
			}
			if w == int32(v) {
				continue
			}
			edges = append(edges, Edge{int32(v), w})
			pool = append(pool, int32(v), w)
		}
	}
	return FromEdges(n, edges, BuildOptions{RemoveDuplicates: true})
}
