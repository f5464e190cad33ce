package graph

import (
	"fmt"
	"sync"

	"parconn/internal/parallel"
)

// VerifyLabeling checks that labels is a correct connected-components
// labeling of g in O(n + m) work:
//
//  1. length matches and every label is in range,
//  2. labels are canonical: labels[labels[v]] == labels[v],
//  3. consistency: both endpoints of every edge share a label (so labels
//     are constant on components), and
//  4. separation: every label class is connected (a BFS seeded at each
//     canonical vertex, restricted to its class, reaches the whole class —
//     together with (3) this implies distinct components get distinct
//     labels).
//
// It returns nil for a correct labeling and a descriptive error otherwise.
func VerifyLabeling(g *Graph, labels []int32) error {
	if len(labels) != g.N {
		return fmt.Errorf("graph: labeling has %d entries for %d vertices", len(labels), g.N)
	}
	for v, l := range labels {
		if l < 0 || int(l) >= g.N {
			return fmt.Errorf("graph: labels[%d]=%d out of range", v, l)
		}
		if labels[l] != l {
			return fmt.Errorf("graph: labels[%d]=%d is not canonical (labels[%d]=%d)", v, l, l, labels[l])
		}
	}
	var mu sync.Mutex
	var bad error
	parallel.Default().Blocks(0, g.N, 1024, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			for _, w := range g.Neighbors(int32(v)) {
				if labels[v] != labels[w] {
					//parconn:allow blockingcall first-error capture; contended only when verification is already failing
					mu.Lock()
					if bad == nil {
						//parconn:allow sharedwrite bad is written under mu; first error wins
						bad = fmt.Errorf("graph: edge (%d,%d) crosses labels %d and %d", v, w, labels[v], labels[w])
					}
					mu.Unlock()
					return
				}
			}
		}
	})
	if bad != nil {
		return bad
	}
	// Separation: one multi-source BFS, seeded at every canonical vertex;
	// if every vertex is reached through same-label edges, each class is
	// connected, and since classes never touch (checked above) the
	// labeling exactly matches the components.
	visited := make([]bool, g.N)
	queue := make([]int32, 0, 1024)
	reached := 0
	for v := 0; v < g.N; v++ {
		if labels[v] != int32(v) {
			continue
		}
		visited[v] = true
		reached++
		queue = append(queue[:0], int32(v))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, w := range g.Neighbors(u) {
				if !visited[w] {
					visited[w] = true
					reached++
					queue = append(queue, w)
				}
			}
		}
	}
	if reached != g.N {
		for v := 0; v < g.N; v++ {
			if !visited[v] {
				return fmt.Errorf("graph: vertex %d is not connected to its canonical vertex %d", v, labels[v])
			}
		}
	}
	return nil
}
