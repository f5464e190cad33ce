package parallel

import "runtime"

// BaseFrontierGrain is the baseline block size for loops whose
// per-iteration work is proportional to a vertex degree (frontier sweeps,
// pair gathers). FrontierGrain refines it per round from the frontier's
// size and edge mass.
const BaseFrontierGrain = 256

// The scheduling decisions below — the grain of a skewed frontier loop, the
// nested edge-parallel cutoff, whether a whole recursion level is too small
// to fork, and the worker count — are pure functions of the statistics the
// machines already track (frontier sizes, live edge counts, the previous
// round's CAS-retry count). The coordinator evaluates them at level and
// round boundaries; they never change inside a parallel section, and they
// keep no state between calls (DESIGN.md §12).
const (
	// nsPerEdge is the fixed per-edge cost the frontier grain is sized
	// with: about what a labeling of an rMat graph measures per estimated
	// edge on 2 vCPUs, and twice a line graph's. A smaller cost means
	// larger blocks: at 25 ns/edge a line graph's traced sparse rounds
	// read about 8% slower (DESIGN.md §12).
	nsPerEdge = 100
	// targetBlockNS is the wall time one claimed block should cost. Large
	// enough to amortize the claim (one atomic add) thousands of times
	// over, small enough that the atomic-counter claim loop still balances
	// skewed blocks across workers.
	targetBlockNS = 400_000
	// minFrontierGrain / maxFrontierGrain bound the frontier grain. The
	// lower bound keeps the per-block scheduling overhead amortized on
	// high-degree frontiers; the upper bound keeps enough blocks in flight
	// for the claim loop to balance degree skew.
	minFrontierGrain = 64
	maxFrontierGrain = 1 << 16
	// serialFrontier is the frontier size below which a skewed loop runs
	// as a single block on the coordinator: two baseline grains, i.e. the
	// point where splitting buys at most one extra worker.
	serialFrontier = 2 * BaseFrontierGrain
	// minEdgeParallelCutoff is the smallest live degree the adaptive
	// edge-parallel path will ever fire on; below it the nested fork/join
	// plus pack costs more than the sequential scan it replaces.
	minEdgeParallelCutoff = 1 << 13
	// serialLevelWork is the n+m threshold (vertices plus directed edges)
	// below which a whole recursion level runs with one worker: at this
	// size every parallel section is under a handful of grains, so the
	// forks would only add wake latency and cache traffic.
	serialLevelWork = 1 << 15
	// uniformBlocksPerProc caps how many blocks a uniform (non-skewed)
	// loop is split into, per worker. Uniform loops need no claim-loop
	// balancing beyond a small surplus, so a handful of blocks per worker
	// minimizes scheduling overhead on large n.
	uniformBlocksPerProc = 8
)

// FrontierGrain picks the block size for a skewed loop over frontier
// vertices that will touch approximately frontierEdges edges in total.
// casRetries is the previous round's lost-CAS count: heavy contention
// shrinks blocks so the claim loop interleaves writers more finely.
// Frontiers at or below serialFrontier run as one block on the caller
// (the returned grain equals the frontier).
func FrontierGrain(procs, frontier int, frontierEdges, casRetries int64) int {
	if procs <= 1 || frontier <= serialFrontier {
		return frontier
	}
	avgDeg := frontierEdges / int64(frontier)
	if avgDeg < 1 {
		avgDeg = 1
	}
	// Edges per block that hit the target block time, then vertices.
	grain := int(targetBlockNS / nsPerEdge / avgDeg)
	if casRetries > int64(frontier)/8 {
		// One lost CAS per eight frontier vertices: writers are colliding;
		// halving the grain halves the window in which two blocks chase
		// the same neighborhood.
		grain /= 2
	}
	// Load balance: keep at least four blocks per worker in flight so the
	// claim loop can absorb degree skew.
	if bal := frontier / (4 * procs); grain > bal {
		grain = bal
	}
	if grain < minFrontierGrain {
		grain = minFrontierGrain
	}
	if grain > maxFrontierGrain {
		grain = maxFrontierGrain
	}
	return grain
}

// Workers caps a run's worker count at the host's physical parallelism.
// Options.Procs is documented as a bound, not a mandate, and workers beyond
// runtime.NumCPU() cannot execute simultaneously — they only add preemption
// (on an oversubscribed one-CPU host a quarter of profile samples land in
// runtime.asyncPreempt interrupting the frontier loops) and cache traffic.
// Race builds keep the requested width: there, goroutine interleaving
// coverage matters more than throughput.
func Workers(procs int) int {
	if raceEnabled {
		return procs
	}
	if c := runtime.NumCPU(); procs > c {
		return c
	}
	return procs
}

// EdgeParallelCutoff picks the live-degree threshold above which one
// frontier vertex's edge list is processed with a nested parallel loop
// (decomp's EdgeParallel). A list is only worth forking when it is a
// meaningful fraction of the level's remaining work, so the cutoff scales
// with liveEdges per worker; zero (at one worker) means the optimization
// stays off.
func EdgeParallelCutoff(procs int, liveEdges int64) int {
	if procs <= 1 {
		return 0
	}
	cutoff := liveEdges / int64(2*procs)
	if cutoff < minEdgeParallelCutoff {
		cutoff = minEdgeParallelCutoff
	}
	const maxInt32 = 1<<31 - 1
	if cutoff > maxInt32 {
		cutoff = maxInt32
	}
	return int(cutoff)
}

// SerialLevel reports whether a recursion level with n vertices and edges
// directed edges is below the tiny-level threshold and should run with a
// single worker end to end (decomposition and contraction); see DESIGN.md
// §12.
func SerialLevel(n int, edges int64) bool {
	return int64(n)+edges < serialLevelWork
}

// UniformGrain is the default grain for uniform (constant work per
// iteration) loops: at most uniformBlocksPerProc blocks per worker, never
// below DefaultGrain. Blocks and ForGrain apply it when the caller passes
// grain <= 0, so large uniform loops are no longer shredded into thousands
// of DefaultGrain-sized blocks.
func UniformGrain(procs, n int) int {
	if procs <= 1 {
		return n
	}
	blocks := uniformBlocksPerProc * procs
	g := (n + blocks - 1) / blocks
	if g < DefaultGrain {
		g = DefaultGrain
	}
	return g
}
