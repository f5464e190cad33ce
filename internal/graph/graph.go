// Package graph provides the adjacency-array (CSR) graph representation the
// paper's implementation is built on (§4), edge-list builders, synthetic
// graph generators matching the paper's inputs (§5, Table 1), a
// PBBS-compatible text format, and sequential reference algorithms used as
// test oracles.
//
// A Graph stores an undirected graph with every edge appearing in both
// directions: Offs[v]..Offs[v+1] delimit vertex v's targets in Adj. Vertex
// ids are int32 (the paper's inputs fit comfortably; the sign bit of Adj
// entries is reserved by the connectivity algorithm's in-place relabeling
// trick).
package graph

import (
	"fmt"

	"parconn/internal/intsort"
	"parconn/internal/parallel"
)

// Graph is an undirected graph in adjacency-array (CSR) form. Each
// undirected edge {u,v} is stored twice: v in u's list and u in v's list.
type Graph struct {
	N    int     // number of vertices
	Offs []int64 // length N+1; Offs[N] == len(Adj)
	Adj  []int32 // concatenated adjacency lists
}

// NumDirected returns the number of directed edges stored (2x the undirected
// edge count).
func (g *Graph) NumDirected() int64 { return int64(len(g.Adj)) }

// NumUndirected returns the number of undirected edges.
func (g *Graph) NumUndirected() int64 { return int64(len(g.Adj)) / 2 }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int32) int32 { return int32(g.Offs[v+1] - g.Offs[v]) }

// Neighbors returns vertex v's adjacency list (a view into Adj; do not
// modify).
func (g *Graph) Neighbors(v int32) []int32 { return g.Adj[g.Offs[v]:g.Offs[v+1]] }

// MaxDegree returns the maximum degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int32 {
	var m int32
	for v := 0; v < g.N; v++ {
		if d := g.Degree(int32(v)); d > m {
			m = d
		}
	}
	return m
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	cp := &Graph{
		N:    g.N,
		Offs: append([]int64(nil), g.Offs...),
		Adj:  append([]int32(nil), g.Adj...),
	}
	return cp
}

// Validate checks structural invariants: offset monotonicity, target range,
// and symmetry of the directed edge multiset. It returns the first violation
// found. Symmetry checking costs O(m log m) and is intended for tests and
// input validation, not hot paths.
func (g *Graph) Validate() error {
	if len(g.Offs) != g.N+1 {
		return fmt.Errorf("graph: len(Offs)=%d, want N+1=%d", len(g.Offs), g.N+1)
	}
	if g.N > 0 && g.Offs[0] != 0 {
		return fmt.Errorf("graph: Offs[0]=%d, want 0", g.Offs[0])
	}
	for v := 0; v < g.N; v++ {
		if g.Offs[v] > g.Offs[v+1] {
			return fmt.Errorf("graph: Offs not monotone at %d", v)
		}
	}
	if g.N >= 0 && len(g.Offs) > 0 && g.Offs[g.N] != int64(len(g.Adj)) {
		return fmt.Errorf("graph: Offs[N]=%d, want len(Adj)=%d", g.Offs[g.N], len(g.Adj))
	}
	for _, w := range g.Adj {
		if w < 0 || int(w) >= g.N {
			return fmt.Errorf("graph: target %d out of range [0,%d)", w, g.N)
		}
	}
	// Symmetry: the multiset of (u,v) must equal the multiset of (v,u).
	counts := make(map[uint64]int64, len(g.Adj))
	for u := 0; u < g.N; u++ {
		for _, w := range g.Neighbors(int32(u)) {
			counts[pack(int32(u), w)]++
			counts[pack(w, int32(u))]--
		}
	}
	for k, c := range counts {
		if c != 0 {
			return fmt.Errorf("graph: asymmetric edge (%d,%d) imbalance %d", int32(k>>32), int32(uint32(k)), c)
		}
	}
	return nil
}

func pack(u, v int32) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// Edge is an undirected edge between U and V.
type Edge struct{ U, V int32 }

// BuildOptions controls FromEdges.
type BuildOptions struct {
	// RemoveDuplicates deduplicates parallel edges. Self-loops are always
	// dropped (they are irrelevant for connectivity and would break the
	// intra-edge deletion logic's invariants).
	RemoveDuplicates bool
	// Procs bounds the parallelism of graph construction; <= 0 means all.
	Procs int
}

// FromEdges builds a symmetric CSR graph on n vertices from an undirected
// edge list. Each input edge {u,v} with u != v produces the directed pair
// (u,v) and (v,u). Out-of-range endpoints cause a panic (generator bugs
// should fail loudly, not produce a corrupt graph).
func FromEdges(n int, edges []Edge, opt BuildOptions) *Graph {
	// Expand to directed pairs, dropping self-loops.
	pairs := make([]uint64, 0, 2*len(edges))
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n))
		}
		if e.U == e.V {
			continue
		}
		pairs = append(pairs, pack(e.U, e.V), pack(e.V, e.U))
	}
	return FromDirectedPairs(parallel.Default(), opt.Procs, n, pairs, opt.RemoveDuplicates)
}

// FromDirectedPairs builds a CSR graph from packed directed (u,v) pairs
// (u in the high 32 bits) on pool p. The pairs must already be symmetric;
// they are sorted in place. It is the shared back-end for FromEdges and for
// graph contraction.
func FromDirectedPairs(p *parallel.Pool, procs, n int, pairs []uint64, removeDuplicates bool) *Graph {
	// Sort by (u,v); grouping by source falls out, and deduplication is a
	// pack over adjacent duplicates. Only the bits that can be non-zero
	// given n are sorted: the source half starts at bit 32 regardless, so
	// the significant width is 32 + Bits(n-1).
	var s intsort.Sorter
	s.Sort(p, procs, pairs, 32+intsort.Bits(uint64(max(n, 1)-1)), nil)
	if removeDuplicates {
		pairs = intsort.UniqueSorted(p, procs, pairs)
	}
	g := &Graph{N: n, Offs: make([]int64, n+1), Adj: make([]int32, len(pairs))}
	m := len(pairs)
	p.For(procs, m, func(i int) {
		g.Adj[i] = int32(uint32(pairs[i]))
	})
	// Offs[u] = first index with source u: for each i where the source
	// changes, record the boundary; then fill gaps (vertices with degree 0).
	parallel.Fill(p, procs, g.Offs, -1)
	g.Offs[n] = int64(m)
	p.For(procs, m, func(i int) {
		u := int32(pairs[i] >> 32)
		if i == 0 || int32(pairs[i-1]>>32) != u {
			g.Offs[u] = int64(i)
		}
	})
	// Backward fill: Offs[v] == -1 means degree 0; take the next vertex's
	// offset. Sequential O(n) pass (cheap relative to the sort).
	for v := n - 1; v >= 0; v-- {
		if g.Offs[v] < 0 {
			g.Offs[v] = g.Offs[v+1]
		}
	}
	return g
}
