package parconn

import (
	"fmt"
	"slices"
	"testing"

	"parconn/internal/graph"
)

// TestHybridDroppedBallSweep labels inputs whose hybrid levels go dense at
// low dense thresholds, so filterEdges drops a ball's lists and contraction
// rebuilds their edges from the other side, in every dedup mode at 1, 2 and
// 4 workers. Each labeling must match the serial-SF oracle's partition.
func TestHybridDroppedBallSweep(t *testing.T) {
	inputs := map[string]*Graph{
		"rmat-dup": RMatGraph(12, RMatOptions{EdgeFactor: 8, Seed: 3, KeepDuplicates: true}),
		"rmat":     RMatGraph(11, RMatOptions{EdgeFactor: 5, Seed: 9}),
		"grid3d":   Grid3DGraph(12, 2),
		"random":   RandomGraph(4000, 4, 6),
		"union":    Union(RMatGraph(10, RMatOptions{EdgeFactor: 5, Seed: 4}), StarGraph(800), LineGraph(1000, 2), mustGraph(20, nil)),
	}
	for name, g := range inputs {
		want, err := ConnectedComponents(g, Options{Algorithm: SerialSF})
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{0.2, 0.01, 0.001} {
			for _, dedup := range []DedupMode{DedupHash, DedupSort, DedupNone} {
				for _, procs := range []int{1, 2, 4} {
					tr := NewTrace()
					labels, err := ConnectedComponents(g, Options{
						Algorithm: DecompArbHybrid, DenseFrac: frac, Dedup: dedup, Procs: procs, Seed: 7, Recorder: tr,
					})
					if err != nil {
						t.Fatal(err)
					}
					if !graph.SamePartition(want, labels) {
						t.Fatalf("%s/densefrac=%g/%v/procs=%d: partition differs from serial-SF", name, frac, dedup, procs)
					}
					if _, err := ValidateTraceEvents(tr.Events()); err != nil {
						t.Fatalf("%s/densefrac=%g/%v/procs=%d: %v", name, frac, dedup, procs, err)
					}
				}
			}
		}
	}
}

// TestDecomposeCutEdges checks Decomposition.CutEdges against a recount of
// the labels' directed cut on the input, for every variant and several
// seeds, on an rMat whose hybrid rounds go dense (so a ball's lists are
// dropped) and on a line (never dense).
func TestDecomposeCutEdges(t *testing.T) {
	rmat := RMatGraph(14, RMatOptions{EdgeFactor: 5, Seed: 1, KeepDuplicates: true})
	tr := NewTrace()
	if _, err := Decompose(rmat, DecompOptions{Seed: 1, Recorder: tr}); err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(tr.Rounds(), func(r Round) bool { return r.Dense }) {
		t.Fatal("the rMat input never goes dense")
	}
	for name, g := range map[string]*Graph{"rmat": rmat, "line": LineGraph(20_000, 3)} {
		for _, alg := range []Algorithm{DecompArbHybrid, DecompArb, DecompMin} {
			for seed := uint64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("%s/%v/seed=%d", name, alg, seed), func(t *testing.T) {
					d, err := Decompose(g, DecompOptions{Algorithm: alg, Seed: seed, Procs: 2})
					if err != nil {
						t.Fatal(err)
					}
					if want := graph.InducedSubgraphCheck(g.g, d.Labels); d.CutEdges != want {
						t.Fatalf("CutEdges = %d, the labels cut %d directed edges", d.CutEdges, want)
					}
				})
			}
		}
	}
}
