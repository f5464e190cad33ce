package core

import (
	"fmt"
	"slices"
	"testing"

	"parconn/internal/decomp"
	"parconn/internal/graph"
	"parconn/internal/parallel"
	"parconn/internal/workspace"
)

// BenchmarkContract times one level's contraction plus RELABELUP on the
// state a level-0 decomposition leaves behind: a path whose vertex ids are
// a random permutation (many small components, each with a surviving edge
// or two) and an rMat graph (one giant component, a handful of cut edges).
// The contracted graph's labeling is computed once up front, so the loop
// measures only this level's work. It reports ns per input vertex.
func BenchmarkContract(b *testing.B) {
	inputs := []struct {
		name string
		g    *graph.Graph
	}{
		{"line-2^20", graph.Line(1<<20, 0x5C)},
		{"rmat-2^18", graph.RMat(18, graph.RMatOptions{EdgeFactor: 5, Seed: 0x5C, KeepDuplicates: true})},
	}
	for _, in := range inputs {
		for _, procs := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/procs=%d", in.name, procs), func(b *testing.B) {
				pool := parallel.NewPool(procs)
				defer pool.Close()
				w := decomp.NewWGraph(in.g, procs)
				res, err := decomp.Decompose(w, decomp.ArbHybrid, decomp.Options{Beta: 0.2, Seed: 7, Procs: procs, Pool: pool})
				if err != nil {
					b.Fatal(err)
				}
				m := newCCMachine()
				m.opt, m.procs, m.pool, m.ws = Options{Procs: procs}, procs, pool, workspace.New()
				sub := &decomp.WGraph{}
				rep, edgesOut := m.contract(m.procs, w, sub, res.Labels)
				subG := &graph.Graph{N: sub.N, Offs: sub.Offs[:sub.N+1], Adj: sub.Adj[:edgesOut]}
				subLabels, err := CC(subG, Options{Variant: decomp.ArbHybrid, Seed: 8, Procs: procs, Pool: pool})
				if err != nil {
					b.Fatal(err)
				}
				release := func() {
					m.ws.PutInt64(sub.Offs)
					m.ws.PutInt32(sub.Adj)
					m.ws.PutInt32(sub.Deg)
					m.ws.PutInt32(rep)
				}
				release()
				labels := slices.Clone(res.Labels)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(labels, res.Labels)
					b.StartTimer()
					rep, _ = m.contract(m.procs, w, sub, labels)
					m.relabelUp(procs, labels, rep, subLabels)
					release()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(in.g.N), "ns/vertex")
			})
		}
	}
}
