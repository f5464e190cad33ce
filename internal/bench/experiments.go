package bench

import (
	"fmt"
	"io"
	"slices"
	"time"

	"parconn"
	"parconn/internal/obs"
)

// Config drives the experiment harness.
type Config struct {
	// Scale multiplies the default (already paper-scaled-down) input sizes.
	Scale float64
	// Trials per measurement; the median is reported (paper: 3).
	Trials int
	// Procs is the worker count for "parallel" columns; <= 0 means all.
	Procs int
	// Threads lists the worker counts swept by Figure 2; empty means
	// {1, 2, 4, ..., Procs}.
	Threads []int
	// Seed drives all randomized algorithms.
	Seed uint64
	// Out receives the rendered tables.
	Out io.Writer
	// CSVDir, when non-empty, additionally writes each table as a CSV file
	// into this directory (created if needed).
	CSVDir string
	// Recorder, if non-nil, receives the observability event stream of
	// every timed connectivity run (one run_start/run_end pair per trial).
	// Attaching a sink perturbs the timings slightly; leave nil for
	// publication numbers.
	Recorder parconn.Recorder
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Trials < 1 {
		c.Trials = 3
	}
	c.Procs = parconn.Procs(c.Procs)
	if len(c.Threads) == 0 {
		for t := 1; t < c.Procs; t *= 2 {
			c.Threads = append(c.Threads, t)
		}
		c.Threads = append(c.Threads, c.Procs)
	}
	if c.Out == nil {
		panic("bench: Config.Out is nil")
	}
	return c
}

// table2Algorithms is the paper's Table 2 row order, followed by the two
// extra baselines this library adds.
var table2Algorithms = []parconn.Algorithm{
	parconn.SerialSF,
	parconn.DecompArb,
	parconn.DecompArbHybrid,
	parconn.DecompMin,
	parconn.ParallelSFPBBS,
	parconn.ParallelSFPRM,
	parconn.HybridBFS,
	parconn.Multistep,
	parconn.LabelProp,
	parconn.ShiloachVishkin,
	parconn.RandomMate,
	parconn.LDDUnionFind,
}

// runCC times alg on g (median of trials) and verifies its answer.
func runCC(g *parconn.Graph, alg parconn.Algorithm, procs, trials int, seed uint64, rec parconn.Recorder) time.Duration {
	return timeCC(g, parconn.Options{Algorithm: alg, Procs: procs, Seed: seed, Recorder: rec}, trials)
}

// Table1 regenerates the paper's Table 1: the input graphs and their sizes
// (at harness scale, with the paper's sizes alongside).
func Table1(cfg Config) {
	cfg = cfg.withDefaults()
	t := NewTable("Input Graph", "Num. Vertices", "Num. Edges", "Paper N", "Paper M")
	for _, in := range Inputs() {
		g := in.Make(cfg.Scale)
		t.Addf(in.Name, g.NumVertices(), g.NumEdges(), in.PaperN, in.PaperM)
	}
	emit(cfg, t, "table1", "Table 1. Input graphs (scale=%.3g; paper sizes for reference)\n", cfg.Scale)
}

// Table2 regenerates the paper's Table 2: serial (1 worker) and parallel
// (Procs workers) connected-components times for every implementation on
// every input.
func Table2(cfg Config) {
	cfg = cfg.withDefaults()
	header := []string{"Implementation"}
	for _, in := range Inputs() {
		header = append(header, in.Name+" (1)", fmt.Sprintf("%s (%dp)", in.Name, cfg.Procs))
	}
	t := NewTable(header...)
	graphs := make([]*parconn.Graph, 0, 6)
	for _, in := range Inputs() {
		graphs = append(graphs, in.Make(cfg.Scale))
	}
	for _, alg := range table2Algorithms {
		row := []string{alg.String()}
		for _, g := range graphs {
			serial := runCC(g, alg, 1, cfg.Trials, cfg.Seed, cfg.Recorder)
			var par time.Duration
			switch {
			case alg == parconn.SerialSF:
				// The paper reports no parallel column for serial-SF.
				par = 0
			case cfg.Procs == 1:
				par = serial // identical configuration; don't re-measure
			default:
				par = runCC(g, alg, cfg.Procs, cfg.Trials, cfg.Seed, cfg.Recorder)
			}
			row = append(row, Seconds(serial), dashIfZero(par))
		}
		t.Add(row...)
	}
	emit(cfg, t, "table2", "Table 2. Connected-components times in seconds (median of %d; scale=%.3g; procs=%d)\n", cfg.Trials, cfg.Scale, cfg.Procs)
}

func dashIfZero(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return Seconds(d)
}

// Fig2 regenerates Figure 2: running time versus worker count for every
// implementation on every input graph.
func Fig2(cfg Config) {
	cfg = cfg.withDefaults()
	for _, in := range Inputs() {
		g := in.Make(cfg.Scale)
		header := []string{"Implementation"}
		for _, th := range cfg.Threads {
			header = append(header, fmt.Sprintf("p=%d", th))
		}
		t := NewTable(header...)
		for _, alg := range table2Algorithms {
			if alg == parconn.SerialSF {
				// Sequential: a single column repeated for reference.
				row := []string{alg.String()}
				d := runCC(g, alg, 1, cfg.Trials, cfg.Seed, cfg.Recorder)
				for range cfg.Threads {
					row = append(row, Seconds(d))
				}
				t.Add(row...)
				continue
			}
			row := []string{alg.String()}
			for _, th := range cfg.Threads {
				row = append(row, Seconds(runCC(g, alg, th, cfg.Trials, cfg.Seed, cfg.Recorder)))
			}
			t.Add(row...)
		}
		emit(cfg, t, "fig2-"+in.Name, "Figure 2 (%s). Time (s) vs workers (scale=%.3g)\n", in.Name, cfg.Scale)
		fmt.Fprintln(cfg.Out)
	}
}

// fig3Betas is the paper's Figure 3 x-axis (0 to 1, coarser here).
var fig3Betas = []float64{0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9}

// fig3Inputs are the graphs Figure 3 shows: random, rMat, 3D-grid, line.
var figSweepInputs = []string{"random", "rMat", "3D-grid", "line"}

// Fig3 regenerates Figure 3: running time versus beta for the three
// decomposition-based implementations.
func Fig3(cfg Config) {
	cfg = cfg.withDefaults()
	algs := []parconn.Algorithm{parconn.DecompArb, parconn.DecompArbHybrid, parconn.DecompMin}
	for _, name := range figSweepInputs {
		in, err := InputByName(name)
		if err != nil {
			panic(err)
		}
		g := in.Make(cfg.Scale)
		header := []string{"beta"}
		for _, a := range algs {
			header = append(header, a.String())
		}
		t := NewTable(header...)
		for _, beta := range fig3Betas {
			row := []string{fmt.Sprintf("%.2f", beta)}
			for _, alg := range algs {
				d := timeCC(g, parconn.Options{
					Algorithm: alg, Beta: beta, Procs: cfg.Procs, Seed: cfg.Seed,
				}, cfg.Trials)
				row = append(row, Seconds(d))
			}
			t.Add(row...)
		}
		emit(cfg, t, "fig3-"+in.Name, "Figure 3 (%s). Time (s) vs beta (procs=%d, scale=%.3g)\n", in.Name, cfg.Procs, cfg.Scale)
		fmt.Fprintln(cfg.Out)
	}
}

// fig4Betas mirrors the paper: one beta set for most graphs, a finer
// low-beta set for the line graph.
var fig4Betas = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
var fig4BetasLine = []float64{0.003, 0.008, 0.02, 0.04, 0.06, 0.08, 0.1, 0.2}

// Fig4 regenerates Figure 4: the number of remaining edges per iteration of
// decomp-arb-hybrid-CC as a function of beta.
func Fig4(cfg Config) {
	cfg = cfg.withDefaults()
	for _, name := range figSweepInputs {
		in, err := InputByName(name)
		if err != nil {
			panic(err)
		}
		g := in.Make(cfg.Scale)
		betas := fig4Betas
		if name == "line" {
			betas = fig4BetasLine
		}
		// Column per beta, row per iteration.
		header := []string{"iteration"}
		for _, b := range betas {
			header = append(header, fmt.Sprintf("beta=%.3g", b))
		}
		series := make([][]int64, len(betas))
		maxLen := 0
		for i, beta := range betas {
			levels := traced(g, parconn.Options{
				Algorithm: parconn.DecompArbHybrid, Beta: beta, Procs: cfg.Procs, Seed: cfg.Seed,
			}).LevelEnds()
			s := make([]int64, 0, len(levels)+1)
			if len(levels) > 0 {
				s = append(s, levels[0].EdgesIn)
			}
			for _, e := range levels {
				s = append(s, e.EdgesOut)
			}
			series[i] = s
			if len(s) > maxLen {
				maxLen = len(s)
			}
		}
		t := NewTable(header...)
		for it := 0; it < maxLen; it++ {
			row := []string{fmt.Sprintf("%d", it)}
			for _, s := range series {
				if it < len(s) {
					row = append(row, fmt.Sprintf("%d", s[it]))
				} else {
					row = append(row, "")
				}
			}
			t.Add(row...)
		}
		emit(cfg, t, "fig4-"+in.Name, "Figure 4 (%s). Remaining directed edges per iteration, decomp-arb-hybrid-CC (scale=%.3g)\n", in.Name, cfg.Scale)
		fmt.Fprintln(cfg.Out)
	}
}

// traced runs ConnectedComponents once with a fresh Trace as its Recorder
// and returns the trace.
func traced(g *parconn.Graph, opt parconn.Options) *parconn.Trace {
	tr := parconn.NewTrace()
	opt.Recorder = tr
	if _, err := parconn.ConnectedComponents(g, opt); err != nil {
		panic(err)
	}
	return tr
}

// phaseColumns sums a trace's Phase events into one total per entry of
// cols, across levels. This is the Figures 5-7 fold: setup (the driver's
// working-graph copy) is charged to init, and a phase not in cols, such as
// measure (per-level reductions done only for tracing), counts nowhere.
func phaseColumns(phases []parconn.Phase, cols []string) []time.Duration {
	out := make([]time.Duration, len(cols))
	for _, p := range phases {
		name := p.Name
		if name == obs.PhaseSetup {
			name = obs.PhaseInit
		}
		if i := slices.Index(cols, name); i >= 0 {
			out[i] += p.Duration
		}
	}
	return out
}

// breakdown runs one decomposition CC per Figures 5-7 input and prints the
// summed time of each phase in phases, titled by the paper's labels cols.
func breakdown(cfg Config, alg parconn.Algorithm, figure string, cols, phases []string) {
	cfg = cfg.withDefaults()
	header := append([]string{"Input"}, cols...)
	header = append(header, "total")
	t := NewTable(header...)
	for _, name := range figSweepInputs {
		in, err := InputByName(name)
		if err != nil {
			panic(err)
		}
		g := in.Make(cfg.Scale)
		// One warm run, then the measured run (breakdowns are shown for a
		// single run in the paper, not medians).
		if _, err := parconn.ConnectedComponents(g, parconn.Options{Algorithm: alg, Procs: cfg.Procs, Seed: cfg.Seed}); err != nil {
			panic(err)
		}
		tr := traced(g, parconn.Options{Algorithm: alg, Procs: cfg.Procs, Seed: cfg.Seed})
		row := []string{name}
		var total time.Duration
		for _, d := range phaseColumns(tr.Phases(), phases) {
			row = append(row, Seconds(d))
			total += d
		}
		row = append(row, Seconds(total))
		t.Add(row...)
	}
	emit(cfg, t, figure+"-"+alg.String(), "%s. Phase breakdown (s) for %s (procs=%d, scale=%.3g)\n", figure, alg, cfg.Procs, cfg.Scale)
	fmt.Fprintln(cfg.Out)
}

// Fig5 regenerates Figure 5: decomp-min-CC phase breakdown.
func Fig5(cfg Config) {
	breakdown(cfg, parconn.DecompMin, "Figure 5",
		[]string{"init", "bfsPre", "bfsPhase1", "bfsPhase2", "contractGraph"},
		[]string{obs.PhaseInit, obs.PhaseBFSPre, obs.PhaseBFSPhase1, obs.PhaseBFSPhase2, obs.PhaseContract})
}

// Fig6 regenerates Figure 6: decomp-arb-CC phase breakdown.
func Fig6(cfg Config) {
	breakdown(cfg, parconn.DecompArb, "Figure 6",
		[]string{"init", "bfsPre", "bfsMain", "contractGraph"},
		[]string{obs.PhaseInit, obs.PhaseBFSPre, obs.PhaseBFSMain, obs.PhaseContract})
}

// Fig7 regenerates Figure 7: decomp-arb-hybrid-CC phase breakdown.
func Fig7(cfg Config) {
	breakdown(cfg, parconn.DecompArbHybrid, "Figure 7",
		[]string{"init", "bfsPre", "bfsSparse", "bfsDense", "filterEdges", "contractGraph"},
		[]string{obs.PhaseInit, obs.PhaseBFSPre, obs.PhaseBFSSparse, obs.PhaseBFSDense, obs.PhaseFilterEdges, obs.PhaseContract})
}

// Fig8 regenerates Figure 8: decomp-arb-hybrid-CC time versus problem size
// on random graphs (m from 10% to 100% of the scaled maximum, n = m/5).
func Fig8(cfg Config) {
	cfg = cfg.withDefaults()
	t := NewTable("num edges", "num vertices", "time (s)")
	maxEdges := int(5_000_000 * cfg.Scale)
	for frac := 1; frac <= 10; frac++ {
		m := maxEdges * frac / 10
		n := m / 5
		if n < 16 {
			continue
		}
		g := parconn.RandomGraph(n, 5, cfg.Seed+uint64(frac))
		d := runCC(g, parconn.DecompArbHybrid, cfg.Procs, cfg.Trials, cfg.Seed, cfg.Recorder)
		t.Addf(m, n, Seconds(d))
	}
	emit(cfg, t, "fig8", "Figure 8. decomp-arb-hybrid-CC time vs problem size, random graphs (procs=%d, scale=%.3g)\n", cfg.Procs, cfg.Scale)
}

// Experiments maps experiment names to their runners, in paper order.
var Experiments = []struct {
	Name string
	Run  func(Config)
}{
	{"table1", Table1},
	{"table2", Table2},
	{"fig2", Fig2},
	{"fig3", Fig3},
	{"fig4", Fig4},
	{"fig5", Fig5},
	{"fig6", Fig6},
	{"fig7", Fig7},
	{"fig8", Fig8},
	{"ablation", Ablation},
	{"work", Work},
}

// ExperimentNames returns every name Run accepts, in display order: the
// paper experiments, then "all".
func ExperimentNames() []string {
	names := make([]string, 0, len(Experiments)+1)
	for _, e := range Experiments {
		names = append(names, e.Name)
	}
	return append(names, "all")
}

// Run executes the named experiment ("all" runs every one in order).
func Run(name string, cfg Config) error {
	if name == "all" {
		for _, e := range Experiments {
			e.Run(cfg)
			fmt.Fprintln(cfg.Out)
		}
		return nil
	}
	for _, e := range Experiments {
		if e.Name == name {
			e.Run(cfg)
			return nil
		}
	}
	return fmt.Errorf("bench: unknown experiment %q", name)
}
