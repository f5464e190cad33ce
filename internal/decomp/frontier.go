package decomp

import (
	"sync/atomic"
	"time"

	"parconn/internal/obs"
	"parconn/internal/parallel"
	"parconn/internal/workspace"
)

// retryShard maps a block's low index to a shard of the per-machine
// sharded accumulators. Any spreading function works here; it only needs
// to keep concurrent blocks off one cache line.
func retryShard(lo int) int { return lo / parallel.BaseFrontierGrain }

// retryShards sizes the per-machine sharded CAS-retry accumulator; block
// indices hash into it, so it only needs to cover plausible worker counts.
const retryShards = 64

// frontier is the BFS round loop the three variants share (§4): the shift
// schedule, one frontier array, and each round's new centers started from
// the permutation prefix. Each variant's machine embeds one and binds two
// loop bodies once, at construction (see Scratch): fnPre, the pre pass that
// starts new centers, and step, the round's edge pass. The variants differ
// only in step (two writeMin passes, one CAS pass, or a sparse/dense pass)
// and in the pass each runs after the loop.
//
// The fields are written only by the coordinating goroutine, between
// parallel sections (the pool's fork/join establishes the ordering).
type frontier struct {
	pool  *parallel.Pool
	ws    *workspace.Arena
	procs int
	g     *WGraph
	// liveEdges is the level's entering directed edge count (Offs is the
	// frozen CSR layout, so Offs[n] is exactly the live total at entry).
	// Per-round edge masses are estimated as frontier × avgDeg: exact
	// tracking costs a random Deg load per claim, and a grain only needs
	// the magnitude.
	liveEdges, avgDeg int64

	// c and parents are Arb's and ArbHybrid's label slots and BFS tree
	// (parents only when asked for); Min keeps its labels in packed pairs.
	c, parents []int32

	perm, front, cur, nxt []int32
	base                  int
	// retryDelta is the previous round's lost CAS races, which the round
	// steps feed to the grain rule.
	retryDelta int64
	cursor     atomic.Int64
	retries    *obs.ShardedInt64
	liveOut    *obs.ShardedInt64
	draw       *shiftDraw

	fnPre func(lo, hi int)
	// step runs one round's edge pass over cur, appending the next
	// frontier to nxt through cursor, and reports whether the round was
	// dense (ArbHybrid's read-based pass).
	step func(round int) bool
}

// roundStats is what a level's round loop returns besides the labels.
type roundStats struct {
	centers, rounds int
	// Phase times: init runs from the machine's start through the shift
	// draw; sparse and dense sum the write-based and read-based steps.
	init, pre, sparse, dense time.Duration
}

// init builds f's accumulators and shift draw; a machine calls it once, at
// construction.
func (f *frontier) init() {
	f.retries = obs.NewShardedInt64(retryShards)
	f.liveOut = obs.NewShardedInt64(retryShards)
	f.draw = newShiftDraw()
}

// bindArbPre binds the pre pass of the Arb variants: start new BFS's from
// the permutation prefix whose simulated shift falls below the current
// round (paper lines 5-6).
func (f *frontier) bindArbPre() {
	f.fnPre = func(lo, hi int) {
		perm, c, parents := f.perm, f.c, f.parents
		base := f.base
		out := parallel.NewAppender(f.front, &f.cursor)
		for i := lo; i < hi; i++ {
			v := perm[base+i]
			// perm is a permutation, so only this iteration touches c[v];
			// CAS rounds are barrier-separated from this plain-write pass.
			if c[v] == unvisited {
				c[v] = v
				if parents != nil {
					parents[v] = v
				}
				out.Push(v)
			}
		}
		out.Flush()
	}
}

// begin aims f at g, and at the pool and arena of opt, for one Decompose
// call. Procs is a bound; it is narrowed to the physical CPU count
// (DESIGN.md §12).
func (f *frontier) begin(g *WGraph, opt Options) {
	f.pool, f.ws = opt.resolve()
	f.procs, f.g = parallel.Workers(opt.Procs), g
	f.liveEdges = g.Offs[g.N]
	// Rounded to nearest, so a line (degree 2 less its two ends) reads 2.
	f.avgDeg = max((f.liveEdges+int64(g.N)/2)/int64(g.N), 1)
	f.retries.Reset()
	f.liveOut.Reset()
}

// sparseGrain is the block size of a pass over the current frontier's
// edges.
func (f *frontier) sparseGrain() int {
	n := len(f.cur)
	return parallel.FrontierGrain(f.procs, n, int64(n)*f.avgDeg, f.retryDelta)
}

// rounds is one level's round loop. It draws the shifts, settling the
// edgeless vertices of e into e's slots, then runs rounds until every live
// vertex is visited: each starts the round's new centers with fnPre, runs
// step over the frontier, and emits one Round event. It releases the
// schedule and the frontier buffers before returning.
func (f *frontier) rounds(opt Options, e entry, t0 time.Time) roundStats {
	n, ws := f.g.N, f.ws
	rec := opt.Recorder
	sh := f.draw.newShifts(f.pool, e, opt.Beta, opt.Seed, f.procs, ws)
	f.perm = sh.order
	live := sh.live()
	// Double-buffered frontier: cur = bufs[curBuf][:curN]; the next
	// frontier accumulates in the other buffer through the atomic cursor.
	bufs := [2][]int32{ws.Int32(n), ws.Int32(n)}
	curBuf, curN := 0, 0
	var st roundStats
	st.init = time.Since(t0)

	var prevRetries int64
	f.retryDelta = 0
	permPtr, visited, round := 0, 0, 0
	st.centers, st.rounds = sh.settle(rec, opt.Level)
	for visited < live {
		tPre := now()
		if curN == 0 && permPtr < live {
			// No active BFS: idle rounds are no-ops, so jump to the round
			// that produces the next center.
			round = sh.fastForward(round, permPtr)
		}
		end := sh.end(round)
		added := 0
		if end > permPtr {
			f.cursor.Store(int64(curN))
			f.front = bufs[curBuf]
			f.base = permPtr
			f.pool.Blocks(f.procs, end-permPtr, 0, f.fnPre)
			permPtr = end
			added = int(f.cursor.Load()) - curN
			curN += added
			st.centers += added
		}
		dPre := time.Since(tPre)
		st.pre += dPre
		if curN == 0 {
			if permPtr >= live {
				break // all vertices visited
			}
			// The chunk just scanned was entirely already-visited; advance
			// to the next round that yields new centers.
			continue
		}

		f.cur = bufs[curBuf][:curN]
		f.nxt = bufs[1-curBuf]
		f.cursor.Store(0)
		tStep := now()
		dense := f.step(round)
		dStep := time.Since(tStep)
		if dense {
			st.dense += dStep
		} else {
			st.sparse += dStep
		}
		sum := f.retries.Sum()
		f.retryDelta, prevRetries = sum-prevRetries, sum
		if rec != nil {
			rec.Round(obs.Round{
				Level: opt.Level, Round: round, Frontier: curN, NewCenters: added,
				Dense: dense, Duration: dPre + dStep, CASRetries: f.retryDelta,
			})
		}
		// Count the frontier just processed as visited (paper line 7);
		// counting at claim time instead would end the loop before the last
		// frontier's edges are classified.
		visited += curN
		curBuf = 1 - curBuf
		curN = int(f.cursor.Load())
		round++
		st.rounds++
	}

	sh.release(ws)
	ws.PutInt32(bufs[0])
	ws.PutInt32(bufs[1])
	f.perm, f.front, f.cur, f.nxt = nil, nil, nil, nil
	return st
}

// phases emits the init and pre phases every variant shares.
func (st roundStats) phases(rec obs.Recorder, level int) {
	rec.Phase(obs.Phase{Level: level, Name: obs.PhaseInit, Duration: st.init})
	rec.Phase(obs.Phase{Level: level, Name: obs.PhaseBFSPre, Duration: st.pre})
}

// result returns the level's Result with labels, whose ownership transfers
// to the caller, and drops f's references to the call's graph, pool and
// arena. Each machine drops its own aliases of the arena buffers it
// acquired before calling it, so the arena's next owner of them is
// exclusive.
func (f *frontier) result(labels []int32, st roundStats) Result {
	parents := f.parents
	f.pool, f.ws, f.g, f.parents = nil, nil, nil, nil
	return Result{Labels: labels, NumCenters: st.centers, Rounds: st.rounds, Parents: parents,
		CASRetries: f.retries.Sum(), EdgesOut: f.liveOut.Sum()}
}
