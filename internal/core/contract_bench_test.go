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
// or two; every pair distinct), a 2D grid (blobs whose borders repeat each
// cut pair about 7 times), an rMat graph (a handful of cut pairs repeated
// about 100 times), a 3D grid (about 45 times) and a random graph (150
// pairs repeated about 9,000 times). Each runs in DedupHash, which hashes
// only the levels whose sample shows heavy repeats, and in DedupSort, which
// never hashes. The contracted graph's labeling is computed once up front,
// so the loop measures only this level's work. It reports ns per input
// vertex and the pairs sent through the hash pre-pass.
func BenchmarkContract(b *testing.B) {
	inputs := []struct {
		name string
		g    *graph.Graph
	}{
		{"line-2^20", graph.Line(1<<20, 0x5C)},
		{"rmat-2^18", graph.RMat(18, graph.RMatOptions{EdgeFactor: 5, Seed: 0x5C, KeepDuplicates: true})},
		{"grid2d-2^20", graph.Grid2D(1<<10, 0x5C)},
		{"grid3d-2^18", graph.Grid3D(1<<6, 0x5C)},
		{"random-2^18", graph.Random(1<<18, 5, 0x5C)},
	}
	for _, in := range inputs {
		for _, dedup := range []DedupMode{DedupHash, DedupSort} {
			for _, procs := range []int{1, 2} {
				benchContract(b, in.name, in.g, dedup, procs)
			}
		}
	}
}

func benchContract(b *testing.B, name string, g *graph.Graph, dedup DedupMode, procs int) {
	b.Run(fmt.Sprintf("%s/%v/procs=%d", name, dedup, procs), func(b *testing.B) {
		pool := parallel.NewPool(procs)
		defer pool.Close()
		w := decomp.NewWGraph(parallel.Default(), procs, g)
		res, err := decomp.Decompose(w, decomp.ArbHybrid, decomp.Options{Beta: 0.2, Seed: 7, Procs: procs, Pool: pool})
		if err != nil {
			b.Fatal(err)
		}
		m := newCCMachine()
		m.opt, m.procs, m.pool, m.ws = Options{Procs: procs, Dedup: dedup}, procs, pool, workspace.New()
		sub := &decomp.WGraph{}
		rep, edgesOut := m.contract(m.procs, w, sub, res)
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
			rep, _ = m.contract(m.procs, w, sub, res)
			m.relabelUp(procs, labels, rep, subLabels)
			release()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.N), "ns/vertex")
		b.ReportMetric(float64(m.hashed), "hashed-pairs")
	})
}
