package parconn

import (
	"testing"

	"parconn/internal/graph"
	"parconn/internal/prand"
)

// edgeList returns g's undirected edges, each once, in adjacency order.
func edgeList(g *Graph) []Edge {
	var edges []Edge
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				edges = append(edges, Edge{U: u, V: v})
			}
		}
	}
	return edges
}

// TestMetamorphic checks every algorithm against input transformations
// that must not change the partition: permuting vertex ids, shuffling the
// edge order, duplicating every edge, and appending isolated vertices.
// Edge order is kept (KeepDuplicates), so a shuffle really reorders the
// adjacency lists the algorithms walk.
func TestMetamorphic(t *testing.T) {
	scale := 1
	if testing.Short() {
		scale = 4
	}
	inputs := map[string]*Graph{
		"random":     RandomGraph(2000/scale, 3, 1),
		"rmat":       RMatGraph(11-scale/2, RMatOptions{EdgeFactor: 4, Seed: 2}),
		"grid3d":     Grid3DGraph(12/scale+2, 3),
		"line":       LineGraph(3000/scale, 4),
		"many-comps": Union(LineGraph(200/scale, 7), StarGraph(40), mustGraph(25, nil), RandomGraph(300/scale, 1, 5)),
	}
	build := func(n int, edges []Edge) *Graph {
		g, err := NewGraph(n, edges, BuildOptions{KeepDuplicates: true})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for name, g := range inputs {
		n := g.NumVertices()
		edges := edgeList(g)
		want := reference(g)
		rng := prand.New(uint64(len(edges)))

		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		permuted := make([]Edge, len(edges))
		for i, e := range edges {
			permuted[i] = Edge{U: perm[e.U], V: perm[e.V]}
		}
		shuffled := append([]Edge(nil), edges...)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		doubled := append(append([]Edge(nil), edges...), shuffled...)
		const extra = 17

		// Each transform maps the labels of its graph back to g's vertices
		// (plus any it appended) for comparison with want.
		transforms := []struct {
			name string
			g    *Graph
			back func(labels []int32) []int32
		}{
			{"permuted", build(n, permuted), func(labels []int32) []int32 {
				out := make([]int32, n)
				for v := range out {
					out[v] = labels[perm[v]]
				}
				return out
			}},
			{"shuffled", build(n, shuffled), nil},
			{"duplicated", build(n, doubled), nil},
			{"isolated", build(n+extra, edges), func(labels []int32) []int32 {
				seen := map[int32]bool{}
				for _, l := range labels[:n] {
					seen[l] = true
				}
				for v, l := range labels[n:] {
					if seen[l] {
						t.Errorf("%s: appended vertex %d shares label %d", name, n+v, l)
					}
					seen[l] = true
				}
				return labels[:n]
			}},
		}
		for _, alg := range Algorithms {
			for _, tr := range transforms {
				labels, err := ConnectedComponents(tr.g, Options{Algorithm: alg, Seed: 3})
				if err != nil {
					t.Fatalf("%s/%s/%v: %v", name, tr.name, alg, err)
				}
				if tr.back != nil {
					labels = tr.back(labels)
				}
				if !graph.SamePartition(want, labels) {
					t.Errorf("%s/%s/%v: partition changed: %d components, want %d", name, tr.name, alg,
						graph.NumComponentsOf(labels), graph.NumComponentsOf(want))
				}
			}
		}
	}
}
