package parallel

import (
	"runtime"
	"testing"
)

// profile is a synthetic per-round stat stream: what a decomposition round
// loop would pass FrontierGrain on a given graph family.
type profile struct {
	name     string
	procs    int
	frontier int
	edges    int64 // edges carried by the frontier
	retries  int64
}

func TestFrontierGrainRanges(t *testing.T) {
	tests := []struct {
		profile
		minGrain, maxGrain int
	}{
		// Uniform random graph: 100k-vertex frontier, average degree 10.
		{profile{name: "uniform", procs: 4, frontier: 100_000, edges: 1_000_000},
			minFrontierGrain, maxFrontierGrain},
		// rMat-skewed: big frontier, heavy average degree. Grain must stay
		// small enough for the claim loop to balance the skew: at least 4
		// blocks per worker.
		{profile{name: "rmat-skewed", procs: 4, frontier: 250_000, edges: 10_000_000},
			minFrontierGrain, 250_000 / (4 * 4)},
		// Star: one hub dominates; the frontier itself is tiny, so the
		// round must run serially (grain == frontier means one block).
		{profile{name: "star", procs: 4, frontier: 3, edges: 1_000_000}, 3, 3},
		// Path: long frontier of degree-2 vertices with CAS contention at
		// the chain's meeting points.
		{profile{name: "path", procs: 4, frontier: 500_000, edges: 1_000_000, retries: 100_000},
			minFrontierGrain, 500_000 / (4 * 4)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			g := FrontierGrain(tc.procs, tc.frontier, tc.edges, tc.retries)
			if g < tc.minGrain || g > tc.maxGrain {
				t.Fatalf("FrontierGrain(%s) = %d, want in [%d, %d]", tc.name, g, tc.minGrain, tc.maxGrain)
			}
			if tc.frontier > serialFrontier {
				// Parallel frontiers must yield at least two blocks per
				// worker or splitting was pointless.
				if blocks := (tc.frontier + g - 1) / g; blocks < 2*tc.procs {
					t.Fatalf("FrontierGrain(%s) = %d gives %d blocks for %d workers", tc.name, g, blocks, tc.procs)
				}
			}
		})
	}
}

func TestFrontierGrainContentionShrinks(t *testing.T) {
	calm := FrontierGrain(4, 100_000, 1_000_000, 0)
	contended := FrontierGrain(4, 100_000, 1_000_000, 50_000)
	if contended > calm {
		t.Fatalf("contended grain %d > calm grain %d", contended, calm)
	}
}

func TestFrontierGrainSerialCases(t *testing.T) {
	if g := FrontierGrain(1, 1_000_000, 10_000_000, 0); g != 1_000_000 {
		t.Fatalf("procs=1 grain = %d, want the whole frontier", g)
	}
	if g := FrontierGrain(4, serialFrontier, 1_000_000, 0); g != serialFrontier {
		t.Fatalf("tiny-frontier grain = %d, want the whole frontier (%d)", g, serialFrontier)
	}
}

// TestFrontierGrainShrinksWithDegree checks the fixed-cost model: a
// frontier carrying more edges per vertex gets fewer vertices per block.
func TestFrontierGrainShrinksWithDegree(t *testing.T) {
	light := FrontierGrain(4, 1<<20, 1<<21, 0)
	heavy := FrontierGrain(4, 1<<20, 1<<25, 0)
	if heavy >= light {
		t.Fatalf("avg-degree-32 grain %d >= avg-degree-2 grain %d", heavy, light)
	}
}

func TestEdgeParallelCutoff(t *testing.T) {
	if c := EdgeParallelCutoff(1, 10_000_000); c != 0 {
		t.Fatalf("procs=1 cutoff = %d, want 0 (disabled)", c)
	}
	c := EdgeParallelCutoff(4, 10_000_000)
	if c < minEdgeParallelCutoff {
		t.Fatalf("cutoff %d below floor %d", c, minEdgeParallelCutoff)
	}
	if c > 10_000_000/(2*4) {
		t.Fatalf("cutoff %d above liveEdges/(2*procs)", c)
	}
	// A tiny level can never reach the floor, so the path stays cold.
	if c := EdgeParallelCutoff(4, 1000); c != minEdgeParallelCutoff {
		t.Fatalf("tiny-level cutoff = %d, want the floor %d", c, minEdgeParallelCutoff)
	}
}

func TestSerialLevel(t *testing.T) {
	if !SerialLevel(138, 276) {
		t.Fatal("late contraction level (n=138) should run serially")
	}
	if SerialLevel(1<<20, 10_000_000) {
		t.Fatal("level 0 of an rMat-20 run must not be serialized")
	}
}

func TestUniformGrain(t *testing.T) {
	if g := UniformGrain(1, 1_000_000); g != 1_000_000 {
		t.Fatalf("procs=1 uniform grain = %d, want n", g)
	}
	g := UniformGrain(4, 1<<20)
	if g < DefaultGrain {
		t.Fatalf("uniform grain %d below DefaultGrain", g)
	}
	if blocks := (1<<20 + g - 1) / g; blocks > uniformBlocksPerProc*4 {
		t.Fatalf("uniform grain %d gives %d blocks, cap is %d", g, blocks, uniformBlocksPerProc*4)
	}
	// Small loops still get DefaultGrain (one or two blocks).
	if g := UniformGrain(4, 1000); g != DefaultGrain {
		t.Fatalf("small-n uniform grain = %d, want DefaultGrain", g)
	}
}

func TestWorkersCapsAtNumCPU(t *testing.T) {
	ncpu := runtime.NumCPU()
	for _, p := range []int{1, 2, 4, ncpu, ncpu + 3, 64} {
		got := Workers(p)
		want := p
		if !raceEnabled && want > ncpu {
			want = ncpu
		}
		if got != want {
			t.Fatalf("Workers(%d) = %d, want %d (NumCPU=%d, race=%v)", p, got, want, ncpu, raceEnabled)
		}
		if got > p {
			t.Fatalf("Workers(%d) = %d widened the requested bound", p, got)
		}
	}
}
