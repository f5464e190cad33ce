package bench

import (
	"fmt"

	"parconn"
)

// Work reports machine-independent work metrics for the decomposition
// algorithm: the total number of directed edges processed across all
// recursion levels (sum of per-level edge counts — each live edge is
// scanned once per level) divided by m. Theorem 1 says this ratio is O(1)
// in expectation (the geometric series sum(beta'^i) with beta' the
// effective per-level shrink); measuring it flat across graph sizes is the
// host-independent witness of the linear-work claim that 1-core timing
// cannot provide.
func Work(cfg Config) {
	cfg = cfg.withDefaults()

	// Per-input work ratios at the default beta.
	t := NewTable("Input", "m (directed)", "levels", "edges processed", "work/m")
	for _, in := range Inputs() {
		g := in.Make(cfg.Scale)
		levels, processed := workOf(g, 0.2, cfg)
		m := 2 * g.NumEdges()
		t.Addf(in.Name, m, levels, processed, ratio(processed, m))
	}
	emit(cfg, t, "work1", "Work 1. Total decomposition work vs m, decomp-arb-hybrid-CC, beta=0.2 (scale=%.3g)\n", cfg.Scale)
	fmt.Fprintln(cfg.Out)

	// Work ratio versus problem size: linear work means a flat column.
	t2 := NewTable("m (directed)", "levels", "edges processed", "work/m")
	maxEdges := int(5_000_000 * cfg.Scale)
	for frac := 1; frac <= 10; frac += 3 {
		mReq := maxEdges * frac / 10
		n := mReq / 5
		if n < 16 {
			continue
		}
		g := parconn.RandomGraph(n, 5, cfg.Seed+uint64(frac))
		levels, processed := workOf(g, 0.2, cfg)
		m := 2 * g.NumEdges()
		t2.Addf(m, levels, processed, ratio(processed, m))
	}
	emit(cfg, t2, "work2", "Work 2. Work ratio vs size, random graphs (flat column = linear work)\n")
	fmt.Fprintln(cfg.Out)

	// Work ratio versus beta: larger beta keeps more edges per level, so
	// the geometric series converges more slowly.
	t3 := NewTable("beta", "levels", "edges processed", "work/m")
	in, err := InputByName("line")
	if err != nil {
		panic(err)
	}
	g := in.Make(cfg.Scale)
	m := 2 * g.NumEdges()
	for _, beta := range []float64{0.05, 0.1, 0.2, 0.4, 0.8} {
		levels, processed := workOf(g, beta, cfg)
		t3.Addf(fmt.Sprintf("%.2f", beta), levels, processed, ratio(processed, m))
	}
	emit(cfg, t3, "work3", "Work 3. Work ratio vs beta on line (no duplicate edges: the pure geometric series)\n")
}

func workOf(g *parconn.Graph, beta float64, cfg Config) (levels int, processed int64) {
	ends := traced(g, parconn.Options{
		Algorithm: parconn.DecompArbHybrid, Beta: beta, Procs: cfg.Procs, Seed: cfg.Seed,
	}).LevelEnds()
	for _, e := range ends {
		processed += e.EdgesIn
	}
	return len(ends), processed
}

func ratio(a, b int64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", float64(a)/float64(b))
}
