package parconn

// This file holds one testing.B benchmark family per table/figure of the
// paper's evaluation, at sizes small enough for `go test -bench=.` to
// finish quickly. The full harness with paper-shaped output is cmd/bench;
// EXPERIMENTS.md maps both to the paper.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"parconn/internal/parallel"
)

// benchGraphs builds the six Table 1 inputs at bench scale (one to two
// orders of magnitude below the harness defaults, which are themselves
// ~100x below the paper).
func benchGraphs() map[string]*Graph {
	return map[string]*Graph{
		"random":    benchRandom(),
		"rMat":      benchRMat(),
		"rMat2":     RMatGraph(12, RMatOptions{EdgeFactor: 200, Seed: 0xB03, KeepDuplicates: true}),
		"3D-grid":   Grid3DGraph(58, 0xB04),
		"line":      LineGraph(400_000, 0xB05),
		"com-Orkut": SocialGraph(14, 0xB06),
	}
}

func benchRandom() *Graph { return RandomGraph(200_000, 5, 0xB01) }

func benchRMat() *Graph {
	return RMatGraph(18, RMatOptions{EdgeFactor: 5, Seed: 0xB02, KeepDuplicates: true})
}

var table1Order = []string{"random", "rMat", "rMat2", "3D-grid", "line", "com-Orkut"}

// BenchmarkTable1Generators measures graph construction per input family
// (Table 1's inputs themselves).
func BenchmarkTable1Generators(b *testing.B) {
	gens := map[string]func() *Graph{
		"random":    func() *Graph { return RandomGraph(200_000, 5, 0xB01) },
		"rMat":      func() *Graph { return RMatGraph(18, RMatOptions{EdgeFactor: 5, Seed: 0xB02, KeepDuplicates: true}) },
		"rMat2":     func() *Graph { return RMatGraph(12, RMatOptions{EdgeFactor: 200, Seed: 0xB03, KeepDuplicates: true}) },
		"3D-grid":   func() *Graph { return Grid3DGraph(58, 0xB04) },
		"line":      func() *Graph { return LineGraph(400_000, 0xB05) },
		"com-Orkut": func() *Graph { return SocialGraph(14, 0xB06) },
	}
	for _, name := range table1Order {
		b.Run(name, func(b *testing.B) {
			var g *Graph
			for i := 0; i < b.N; i++ {
				g = gens[name]()
			}
			b.ReportMetric(float64(g.NumEdges()), "edges")
		})
	}
}

// BenchmarkTable2 measures every implementation on every input (Table 2's
// grid). Run a slice with e.g. -bench 'Table2/random'.
func BenchmarkTable2(b *testing.B) {
	graphs := benchGraphs()
	for _, gname := range table1Order {
		g := graphs[gname]
		for _, alg := range Algorithms {
			b.Run(fmt.Sprintf("%s/%s", gname, alg), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := ConnectedComponents(g, Options{Algorithm: alg, Seed: 42}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCCAllocs measures steady-state allocations of the decomposition
// CC variants with warm scheduler and scratch arena: one untimed warm-up run
// populates the workspace free lists, so the timed iterations see the reuse
// path (per-level buffers recycled, loop bodies pre-bound). The remaining
// allocations are the result labels handed to the caller (which cannot be
// recycled) plus per-parallel-section bookkeeping.
func BenchmarkCCAllocs(b *testing.B) {
	graphs := map[string]*Graph{"rMat": benchRMat(), "random": benchRandom()}
	for _, gname := range []string{"rMat", "random"} {
		g := graphs[gname]
		for _, alg := range []Algorithm{DecompArbHybrid, DecompArb} {
			b.Run(fmt.Sprintf("%s/%s", gname, alg), func(b *testing.B) {
				opt := Options{Algorithm: alg, Seed: 42}
				if _, err := ConnectedComponents(g, opt); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ConnectedComponents(g, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestCCAllocsProcs2 pins BenchmarkCCAllocs' inputs at two workers. Every
// parallel section that forks costs parallel.SectionAllocs in Pool.exec,
// its task and its done channel, and how many sections fork depends on the
// host's CPU count and, through the grain rule, on each round's frontier
// and its predecessor's lost CAS races, which vary run to run at two
// workers. So the test subtracts that fixed cost per counted section and
// pins the rest: the result labels plus the
// bodies and scratch that are bound or grown once per machine. The
// ceilings are the counts measured on a 2-CPU host once level entry (the
// working-graph copy, the decomposition's entry pass and fills) also ran
// on the run's pool through bound bodies: only the result labels remain.
// A host with one CPU forks nothing and stays below. The same inputs at
// procs=1 must allocate only the labels.
func TestCCAllocsProcs2(t *testing.T) {
	if testing.Short() {
		t.Skip("labels two 10^6-edge graphs several times; the race detector's runtime also allocates")
	}
	graphs := map[string]*Graph{"rMat": benchRMat(), "random": benchRandom()}
	ceilings := []struct {
		graph string
		alg   Algorithm
		max   uint64
	}{
		{"rMat", DecompArbHybrid, 1},
		{"rMat", DecompArb, 1},
		{"random", DecompArbHybrid, 1},
		{"random", DecompArb, 1},
	}
	for _, c := range ceilings {
		opt := Options{Algorithm: c.alg, Seed: 42, Procs: 2}
		got, sections := allocsPerLabeling(t, graphs[c.graph], opt)
		t.Logf("%s/%s: %d allocs per labeling beyond %d forked sections", c.graph, c.alg, got, sections)
		if got > c.max {
			t.Errorf("%s/%s at procs=2: %d allocs per labeling beyond its sections, ceiling %d", c.graph, c.alg, got, c.max)
		}
		// One worker forks nothing: the result labels are the only allocation.
		opt.Procs = 1
		if got, _ := allocsPerLabeling(t, graphs[c.graph], opt); got > 1 {
			t.Errorf("%s/%s at procs=1: %d allocs per labeling, want 1", c.graph, c.alg, got)
		}
	}
}

// allocsPerLabeling returns, over three warm labelings, the smallest heap
// allocation count net of the fixed cost of the sections that forked on the
// default pool, and that labeling's section count. Unlike
// testing.AllocsPerRun it leaves GOMAXPROCS alone, so the sections really
// fork.
func allocsPerLabeling(t *testing.T, g *Graph, opt Options) (allocs uint64, sections int64) {
	t.Helper()
	if _, err := ConnectedComponents(g, opt); err != nil {
		t.Fatal(err)
	}
	allocs = math.MaxUint64
	pool := parallel.Default()
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		s0 := pool.Sections()
		runtime.ReadMemStats(&before)
		if _, err := ConnectedComponents(g, opt); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		s := pool.Sections() - s0
		if net := after.Mallocs - before.Mallocs - uint64(s)*parallel.SectionAllocs; net < allocs {
			allocs, sections = net, s
		}
	}
	return allocs, sections
}

// BenchmarkFig2Threads measures the decomposition CC at several worker
// counts (Figure 2's thread sweep; on a single-core host the points
// coincide).
func BenchmarkFig2Threads(b *testing.B) {
	g := RandomGraph(200_000, 5, 0xF2)
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", procs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ConnectedComponents(g, Options{Algorithm: DecompArbHybrid, Procs: procs, Seed: 42}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3BetaSweep measures the three decomposition variants across
// beta (Figure 3).
func BenchmarkFig3BetaSweep(b *testing.B) {
	g := RandomGraph(200_000, 5, 0xF3)
	for _, alg := range []Algorithm{DecompArb, DecompArbHybrid, DecompMin} {
		for _, beta := range []float64{0.05, 0.1, 0.2, 0.4, 0.8} {
			b.Run(fmt.Sprintf("%s/beta=%.2f", alg, beta), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := ConnectedComponents(g, Options{Algorithm: alg, Beta: beta, Seed: 42}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig4EdgeDecay reports the per-iteration edge decay of
// decomp-arb-hybrid-CC as custom metrics (Figure 4): levels = recursion
// depth, shrink = geometric mean per-level edge shrink factor.
func BenchmarkFig4EdgeDecay(b *testing.B) {
	g := RandomGraph(200_000, 5, 0xF4)
	for _, beta := range []float64{0.1, 0.3, 0.5} {
		b.Run(fmt.Sprintf("beta=%.1f", beta), func(b *testing.B) {
			tr := NewTrace()
			for i := 0; i < b.N; i++ {
				tr.Reset()
				if _, err := ConnectedComponents(g, Options{Algorithm: DecompArbHybrid, Beta: beta, Seed: 42, Recorder: tr}); err != nil {
					b.Fatal(err)
				}
			}
			levels := tr.LevelEnds()
			if len(levels) > 1 {
				first := float64(levels[0].EdgesIn)
				last := float64(levels[len(levels)-1].EdgesIn)
				steps := float64(len(levels) - 1)
				b.ReportMetric(float64(len(levels)), "levels")
				if last > 0 {
					b.ReportMetric(math.Pow(last/first, 1/steps), "shrink")
				}
			}
		})
	}
}

// BenchmarkFig567Phases measures each decomposition variant once per input
// (the runs behind the Figures 5-7 breakdowns; per-phase numbers come from
// cmd/bench).
func BenchmarkFig567Phases(b *testing.B) {
	graphs := benchGraphs()
	for _, alg := range []Algorithm{DecompMin, DecompArb, DecompArbHybrid} {
		for _, gname := range []string{"random", "rMat", "3D-grid", "line"} {
			g := graphs[gname]
			b.Run(fmt.Sprintf("%s/%s", alg, gname), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := ConnectedComponents(g, Options{Algorithm: alg, Seed: 42}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig8Scaling measures decomp-arb-hybrid-CC across problem sizes
// (Figure 8: near-linear time in m).
func BenchmarkFig8Scaling(b *testing.B) {
	for _, m := range []int{100_000, 200_000, 400_000, 800_000} {
		n := m / 5
		g := RandomGraph(n, 5, uint64(m))
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ConnectedComponents(g, Options{Algorithm: DecompArbHybrid, Seed: 42}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m)/float64(b.Elapsed().Nanoseconds()/int64(b.N))*1000, "edges/us")
		})
	}
}
