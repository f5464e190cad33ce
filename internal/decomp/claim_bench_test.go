package decomp

import (
	"fmt"
	"testing"
	"time"

	"parconn/internal/graph"
	"parconn/internal/obs"
	"parconn/internal/parallel"
)

// BenchmarkSparseClaim times the claim loop alone — the hybrid's sparse
// rounds and Arb's single pass — on a path whose vertex ids are a random
// permutation, so every list, label and target load misses cache. It
// reports the claim phase's time per claimed (non-center) vertex; ns/op is
// the whole decomposition, including init and pre rounds.
func BenchmarkSparseClaim(b *testing.B) {
	g := graph.Line(1<<20, 0x5C)
	for _, variant := range []Variant{ArbHybrid, Arb} {
		for _, procs := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/procs=%d", variant, procs), func(b *testing.B) {
				pool := parallel.NewPool(procs)
				defer pool.Close()
				w := NewWGraph(g, procs)
				tr := obs.NewTrace()
				opt := Options{Procs: procs, Seed: 7, Pool: pool, Scratch: &Scratch{}, Recorder: tr}
				var claimed int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					w.init(g, procs, w.Adj, w.Deg)
					b.StartTimer()
					res, err := Decompose(w, variant, opt)
					if err != nil {
						b.Fatal(err)
					}
					claimed += int64(g.N - res.NumCenters)
				}
				// Only the variant's own claim phase is recorded.
				var claim time.Duration
				for _, p := range tr.Phases() {
					if p.Name == obs.PhaseBFSSparse || p.Name == obs.PhaseBFSMain {
						claim += p.Duration
					}
				}
				b.ReportMetric(float64(claim.Nanoseconds())/float64(claimed), "ns/claim")
			})
		}
	}
}
