package bench

import (
	"fmt"

	"parconn"
)

// Ablation runs the design-choice ablations DESIGN.md calls out, beyond the
// paper's own figures:
//
//  1. duplicate-edge removal during contraction: hash (paper's choice) vs
//     sort vs none (the paper notes correctness is preserved without
//     dedup; this quantifies the cost),
//  2. the direction-optimizing threshold of decomp-arb-hybrid (paper: 20%),
//  3. the §4 high-degree edge-parallel inner loop: the adaptive cutoff
//     (the default; off at one worker, as in the paper's final choice) vs
//     fixed thresholds, on a hub-heavy graph.
func Ablation(cfg Config) {
	cfg = cfg.withDefaults()

	// 1. Dedup mode, on the duplicate-heavy inputs (rMat2 keeps duplicates;
	// the random graph generates them naturally).
	{
		t := NewTable("Input", "dedup=hash", "dedup=sort", "dedup=none")
		for _, name := range []string{"random", "rMat2"} {
			in, err := InputByName(name)
			if err != nil {
				panic(err)
			}
			g := in.Make(cfg.Scale)
			row := []string{name}
			for _, mode := range []parconn.DedupMode{parconn.DedupHash, parconn.DedupSort, parconn.DedupNone} {
				d := timeCC(g, parconn.Options{
					Algorithm: parconn.DecompArb, Dedup: mode, Procs: cfg.Procs, Seed: cfg.Seed,
				}, cfg.Trials)
				row = append(row, Seconds(d))
			}
			t.Add(row...)
		}
		emit(cfg, t, "ablation1-dedup", "Ablation 1. Contraction duplicate removal, decomp-arb-CC (s; scale=%.3g)\n", cfg.Scale)
		fmt.Fprintln(cfg.Out)
	}

	// 2. Dense-round threshold for the hybrid.
	{
		fracs := []float64{0.05, 0.1, 0.2, 0.4, 0.8, 1.0}
		header := []string{"Input"}
		for _, f := range fracs {
			header = append(header, fmt.Sprintf("dense>%.0f%%", 100*f))
		}
		t := NewTable(header...)
		for _, name := range []string{"random", "rMat", "3D-grid"} {
			in, err := InputByName(name)
			if err != nil {
				panic(err)
			}
			g := in.Make(cfg.Scale)
			row := []string{name}
			for _, f := range fracs {
				d := timeCC(g, parconn.Options{
					Algorithm: parconn.DecompArbHybrid, DenseFrac: f, Procs: cfg.Procs, Seed: cfg.Seed,
				}, cfg.Trials)
				row = append(row, Seconds(d))
			}
			t.Add(row...)
		}
		emit(cfg, t, "ablation2-densefrac", "Ablation 2. Direction-optimizing threshold, decomp-arb-hybrid-CC (s; paper uses 20%%; dense>100%% = never dense = decomp-arb)\n")
		fmt.Fprintln(cfg.Out)
	}

	// 3. High-degree edge-parallel inner loop on a hub-heavy graph.
	{
		g := parconn.RMatGraph(logScaled(16, cfg.Scale), parconn.RMatOptions{EdgeFactor: 30, Seed: cfg.Seed})
		t := NewTable("Config", "time (s)")
		for _, thr := range []int{0, 1 << 12, 1 << 10, 1 << 8} {
			label := "adaptive (default)"
			if thr > 0 {
				label = fmt.Sprintf("threshold=%d", thr)
			}
			d := timeCC(g, parconn.Options{
				Algorithm: parconn.DecompArb, EdgeParallel: thr, Procs: cfg.Procs, Seed: cfg.Seed,
			}, cfg.Trials)
			t.Add(label, Seconds(d))
		}
		emit(cfg, t, "ablation3-edgepar", "Ablation 3. High-degree edge-parallel inner loop, decomp-arb-CC on rMat ef=30 (max degree %d)\n", g.MaxDegree())
	}
}
