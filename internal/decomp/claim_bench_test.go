package decomp

import (
	"fmt"
	"testing"
	"time"

	"parconn/internal/graph"
	"parconn/internal/obs"
	"parconn/internal/parallel"
	"parconn/internal/prand"
	"parconn/internal/workspace"
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
				w := NewWGraph(parallel.Default(), procs, g)
				tr := obs.NewTrace()
				sc := &Scratch{}
				opt := Options{Procs: procs, Seed: 7, Pool: pool, Scratch: sc, Recorder: tr}
				var claimed int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					sc.copier.run(pool, w, g, procs, w.Adj, w.Deg)
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

// BenchmarkLevelEntry times a level's entry pass alone — the shift draw,
// the settle-or-bucket pass over the degrees and the start-round counting
// sort — at n = 2^21, with no edgeless vertices (a line or a contracted
// level) and with 54% of them edgeless (cc-rmat's rMat-2^20 input). It
// reports ns per vertex.
func BenchmarkLevelEntry(b *testing.B) {
	const n = 1 << 21
	for _, pct := range []int{0, 54} {
		deg := make([]int32, n)
		for v := range deg {
			if prand.Hash64(uint64(v))%100 >= uint64(pct) {
				deg[v] = 1
			}
		}
		c := make([]int32, n)
		for _, procs := range []int{1, 2} {
			b.Run(fmt.Sprintf("edgeless=%d%%/procs=%d", pct, procs), func(b *testing.B) {
				pool := parallel.NewPool(procs)
				defer pool.Close()
				ws := workspace.New()
				d := newShiftDraw()
				e := entry{deg: deg, c: c}
				d.newShifts(pool, e, 0.2, 1, procs, ws).release(ws)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.newShifts(pool, e, 0.2, uint64(i), procs, ws).release(ws)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/vertex")
			})
		}
	}
}
