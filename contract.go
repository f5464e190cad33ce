package parconn

import (
	"fmt"

	"parconn/internal/graph"
	"parconn/internal/parallel"
)

// Contract returns the quotient graph of g under labels: every label class
// becomes one vertex, intra-class edges disappear, duplicate inter-class
// edges are merged, and self-loops are dropped. It also returns reps, the
// canonical original vertex of each quotient vertex (quotient vertex i
// corresponds to the class of reps[i]).
//
// This is the CONTRACT step of the paper's Algorithm 1 exposed as a public
// operation — useful for multilevel graph algorithms that alternate
// clustering and coarsening. labels need not be a connectivity labeling;
// any canonical labeling (labels[labels[v]] == labels[v], labels[v] in
// [0, n)) works, e.g. the output of Decompose.
func Contract(g *Graph, labels []int32, procs int) (*Graph, []int32, error) {
	n := g.NumVertices()
	if len(labels) != n {
		return nil, nil, fmt.Errorf("parconn: Contract labels length %d != n %d", len(labels), n)
	}
	procs = parallel.Procs(procs)
	for v, l := range labels {
		if l < 0 || int(l) >= n {
			return nil, nil, fmt.Errorf("parconn: Contract labels[%d]=%d out of range", v, l)
		}
		if labels[l] != l {
			return nil, nil, fmt.Errorf("parconn: Contract labels not canonical at %d", v)
		}
	}
	pool := parallel.Default()
	// Rank the canonical vertices.
	rank := make([]int32, n)
	pool.For(procs, n, func(v int) {
		if labels[v] == int32(v) {
			rank[v] = 1
		}
	})
	var scan parallel.Scan[int32]
	k := int(scan.Exclusive(pool, procs, rank, rank))
	reps := make([]int32, k)
	pool.For(procs, n, func(v int) {
		if labels[v] == int32(v) {
			reps[rank[v]] = int32(v)
		}
	})
	// Gather inter-class directed pairs in quotient space; the builder
	// sorts them and drops the duplicates.
	var pairs []uint64
	for v := 0; v < n; v++ {
		src := rank[labels[v]]
		for _, w := range g.Neighbors(int32(v)) {
			if tgt := rank[labels[w]]; src != tgt {
				pairs = append(pairs, uint64(uint32(src))<<32|uint64(uint32(tgt)))
			}
		}
	}
	q := graph.FromDirectedPairs(pool, procs, k, pairs, true)
	return &Graph{g: q}, reps, nil
}
