package graph

import (
	"fmt"
	"math"

	"parconn/internal/parallel"
	"parconn/internal/prand"
)

// The generators below produce the paper's input families (Table 1):
//
//	random    n vertices, 5 random neighbors each (m = 5n)
//	rMat      power-law graph of Chakrabarti et al., m ~= 5n
//	rMat2     same generator, much denser (m/n in the hundreds)
//	3D-grid   3-dimensional torus, 6 neighbors per vertex (m = 3n)
//	line      path of length n-1 (diameter n-1, the adversarial input)
//	social    com-Orkut stand-in: rMat at Orkut's edge/vertex ratio (~38)
//
// Vertex labels of all synthetic graphs are randomly permuted, as in §5
// ("for the synthetic graphs, the vertex labels are randomly assigned"):
// without this, generator locality (e.g. grid order) would flatter cache
// behaviour in ways the paper's numbers do not.

// Random returns the paper's "random" graph: every vertex draws `perVertex`
// neighbors uniformly at random. Self-loops are dropped and duplicates kept
// (the builder stores whatever multiset results, matching PBBS).
func Random(n, perVertex int, seed uint64) *Graph {
	if n <= 0 {
		return &Graph{N: 0, Offs: []int64{0}}
	}
	pool := parallel.Default()
	pairs := make([]uint64, 0, 2*n*perVertex)
	edges := make([]Edge, n*perVertex)
	pool.Blocks(0, n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			for j := 0; j < perVertex; j++ {
				u := prand.Hash64(seed^uint64(v)<<20^uint64(j)) % uint64(n)
				edges[v*perVertex+j] = Edge{int32(v), int32(u)}
			}
		}
	})
	for _, e := range edges {
		if e.U != e.V {
			pairs = append(pairs, pack(e.U, e.V), pack(e.V, e.U))
		}
	}
	return FromDirectedPairs(pool, 0, n, pairs, false)
}

// RMatOptions parameterizes the recursive-matrix generator.
type RMatOptions struct {
	// A, B, C are the recursive quadrant probabilities (D = 1-A-B-C).
	// Zeros mean the standard defaults (0.57, 0.19, 0.19).
	A, B, C float64
	// EdgeFactor is the requested number of undirected edges per vertex.
	EdgeFactor int
	// Seed drives all randomness.
	Seed uint64
	// KeepDuplicates retains parallel edges generated by rMat collisions
	// (the PBBS rMat inputs keep them; dedup makes the graph slightly
	// smaller than n*EdgeFactor).
	KeepDuplicates bool
}

// RMat returns a power-law graph with 2^scale vertices generated by the
// R-MAT recursive procedure (Chakrabarti, Zhan, Faloutsos, SDM'04), with
// vertex labels randomly permuted.
func RMat(scale int, opt RMatOptions) *Graph {
	if scale < 0 {
		panic("graph: RMat scale must be >= 0")
	}
	n := 1 << uint(scale)
	a, b, c := opt.A, opt.B, opt.C
	if a == 0 && b == 0 && c == 0 {
		a, b, c = 0.57, 0.19, 0.19
	}
	ef := opt.EdgeFactor
	if ef <= 0 {
		ef = 5
	}
	m := n * ef
	perm := prand.Permutation(n, opt.Seed^0xabcdef)
	edges := make([]Edge, m)
	parallel.Default().Blocks(0, m, 0, func(lo, hi int) {
		src := prand.New(opt.Seed).Split(uint64(lo))
		for i := lo; i < hi; i++ {
			u, v := 0, 0
			for bit := 0; bit < scale; bit++ {
				r := src.Float64()
				// Add per-level noise as in the PBBS generator so the
				// degree distribution is not perfectly self-similar.
				noise := (src.Float64() - 0.5) * 0.1
				aa := a + noise*a
				switch {
				case r < aa:
					// top-left quadrant: neither bit set
				case r < aa+b:
					v |= 1 << uint(bit)
				case r < aa+b+c:
					u |= 1 << uint(bit)
				default:
					u |= 1 << uint(bit)
					v |= 1 << uint(bit)
				}
			}
			edges[i] = Edge{perm[u], perm[v]}
		}
	})
	return FromEdges(n, edges, BuildOptions{RemoveDuplicates: !opt.KeepDuplicates})
}

// Grid3D returns a 3-dimensional torus with side^3 vertices; every vertex
// has six neighbors (two per dimension, wrapping), giving exactly 3*side^3
// undirected edges — the paper's 3D-grid. Labels are randomly permuted.
func Grid3D(side int, seed uint64) *Graph {
	if side <= 0 {
		return &Graph{N: 0, Offs: []int64{0}}
	}
	if side == 1 {
		// A 1-torus in every dimension has only self-loops; empty graph.
		return &Graph{N: 1, Offs: []int64{0, 0}}
	}
	n := side * side * side
	perm := prand.Permutation(n, seed)
	idx := func(x, y, z int) int32 { return perm[(x*side+y)*side+z] }
	edges := make([]Edge, 3*n)
	parallel.Default().Blocks(0, n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			x := v / (side * side)
			y := (v / side) % side
			z := v % side
			me := idx(x, y, z)
			edges[3*v+0] = Edge{me, idx((x+1)%side, y, z)}
			edges[3*v+1] = Edge{me, idx(x, (y+1)%side, z)}
			edges[3*v+2] = Edge{me, idx(x, y, (z+1)%side)}
		}
	})
	// side==2 makes (x+1)%side neighbors coincide both ways, creating
	// duplicate undirected edges; deduplicate for that degenerate size.
	return FromEdges(n, edges, BuildOptions{RemoveDuplicates: side == 2})
}

// Line returns a path on n vertices (n-1 undirected edges) with randomly
// permuted labels — the paper's degenerate high-diameter input.
func Line(n int, seed uint64) *Graph {
	if n <= 0 {
		return &Graph{N: 0, Offs: []int64{0}}
	}
	perm := prand.Permutation(n, seed)
	edges := make([]Edge, n-1)
	parallel.Default().For(0, n-1, func(i int) {
		edges[i] = Edge{perm[i], perm[i+1]}
	})
	return FromEdges(n, edges, BuildOptions{})
}

// Social returns a com-Orkut stand-in: an rMat graph at Orkut's edge/vertex
// ratio (~38 undirected edges per vertex), deduplicated, labels permuted.
// See DESIGN.md §3 for the substitution rationale.
func Social(scale int, seed uint64) *Graph {
	return RMat(scale, RMatOptions{EdgeFactor: 38, Seed: seed})
}

// Star returns a star: vertex 0 joined to all others (a stress test for
// high-degree centers).
func Star(n int) *Graph {
	if n <= 0 {
		return &Graph{N: 0, Offs: []int64{0}}
	}
	edges := make([]Edge, n-1)
	for i := 1; i < n; i++ {
		edges[i-1] = Edge{0, int32(i)}
	}
	return FromEdges(n, edges, BuildOptions{})
}

// Components returns a graph that is the disjoint union of the given
// graphs, relabeling each part into its own id range. Useful for
// constructing many-component test inputs with known structure.
func Components(parts ...*Graph) *Graph {
	n := 0
	var pairs []uint64
	for _, p := range parts {
		if n > math.MaxInt32-p.N {
			panic("graph: Components total vertex count overflows int32")
		}
		base := int32(n)
		for u := 0; u < p.N; u++ {
			for _, w := range p.Neighbors(int32(u)) {
				pairs = append(pairs, pack(base+int32(u), base+w))
			}
		}
		n += p.N
	}
	return FromDirectedPairs(parallel.Default(), 0, n, pairs, false)
}

// String summarizes the graph for logs.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.N, g.NumUndirected())
}
