package parconn

import (
	"io"

	"parconn/internal/graph"
)

// VerifyLabeling checks in O(n + m) that labels is a correct canonical
// connected-components labeling of g, returning a descriptive error for the
// first violation found. Downstream systems can use it to validate labels
// produced elsewhere (or to test this library against themselves).
func VerifyLabeling(g *Graph, labels []int32) error {
	return graph.VerifyLabeling(g.g, labels)
}

// Stats summarizes a graph's structure; see Summarize.
type Stats = graph.Stats

// Summarize computes structural statistics of g: degree distribution
// summary, component counts, and a double-sweep diameter lower bound.
// Intended for reporting, not hot paths.
func Summarize(g *Graph, seed uint64) Stats {
	return graph.Summarize(g.g, seed)
}

// WriteBinary serializes g in the library's compact binary format (magic
// "PCONNGR1"), which loads much faster than the text format for large
// graphs.
func (g *Graph) WriteBinary(w io.Writer) error { return g.g.WriteBinary(w) }

// ReadBinaryGraph parses a graph in the binary format written by
// WriteBinary.
func ReadBinaryGraph(r io.Reader) (*Graph, error) {
	gg, err := graph.ReadBinary(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: gg}, nil
}

// ReadEdgeList parses a SNAP-style whitespace-separated edge list ('#'/'%'
// comments allowed), compacting arbitrary vertex ids to [0, n) — the format
// the paper's com-Orkut input ships in. The graph is symmetrized and
// deduplicated.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	gg, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: gg}, nil
}

// WriteEdgeList writes g as a SNAP-style edge list (each undirected edge
// once).
func (g *Graph) WriteEdgeList(w io.Writer) error { return g.g.WriteEdgeList(w) }
