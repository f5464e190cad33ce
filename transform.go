package parconn

import (
	"parconn/internal/graph"
	"parconn/internal/parallel"
)

// InducedSubgraph returns the subgraph induced by the vertices with
// keep[v] == true and the mapping from new vertex ids to original ids.
// keep must have length NumVertices.
func InducedSubgraph(g *Graph, keep []bool, procs int) (*Graph, []int32) {
	sub, orig := graph.InducedSubgraph(parallel.Default(), procs, g.g, keep)
	return &Graph{g: sub}, orig
}

// LargestComponent extracts the largest connected component under labels
// (as returned by ConnectedComponents) and the new-to-original vertex
// mapping.
func LargestComponent(g *Graph, labels []int32, procs int) (*Graph, []int32) {
	sub, orig := graph.LargestComponent(parallel.Default(), procs, g.g, labels)
	return &Graph{g: sub}, orig
}

// Grid2DGraph returns a 2-dimensional torus with side^2 vertices.
func Grid2DGraph(side int, seed uint64) *Graph {
	return &Graph{g: graph.Grid2D(side, seed)}
}

// TreeGraph returns a complete binary tree on n vertices with permuted
// labels.
func TreeGraph(n int, seed uint64) *Graph {
	return &Graph{g: graph.CompleteBinaryTree(n, seed)}
}

// CliqueChainGraph returns numCliques cliques of cliqueSize vertices, each
// joined to the next by one bridge edge.
func CliqueChainGraph(numCliques, cliqueSize int, seed uint64) *Graph {
	return &Graph{g: graph.CliqueChain(numCliques, cliqueSize, seed)}
}

// PreferentialAttachmentGraph returns a Barabási–Albert-style connected
// power-law graph with ~k edges per arriving vertex.
func PreferentialAttachmentGraph(n, k int, seed uint64) *Graph {
	return &Graph{g: graph.PreferentialAttachment(n, k, seed)}
}
