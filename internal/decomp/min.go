package decomp

import (
	"math"
	"sync/atomic"
	"time"

	"parconn/internal/obs"
	"parconn/internal/parallel"
	"parconn/internal/prand"
)

// Decomp-Min (Algorithm 2 of the paper) stores per vertex a pair
// (c1, c2): c1 is the conflict-resolution slot frontier vertices writeMin
// their center's fractional shift into, and c2 is the component id. The
// pair is packed into one int64 — the paper stores the pair contiguously
// for the same reason (one cache line, one atomic word):
//
//	c1 = int32(packed >> 32)    c2 = int32(packed)
//
// Signed comparison of packed values is lexicographic on (c1, c2), so a
// single CAS-loop writeMin on the packed word implements the paper's
// writeMin on the first component, with center id as a deterministic
// tiebreaker. c1 = -1 (pair < 0) marks a visited vertex and is smaller than
// every mark, so writeMin can never overwrite it.

const minInf = int32(math.MaxInt32)

// deltaFracBits sizes the range fractional shifts are drawn from; 2^30
// makes same-round ties between distinct centers vanishingly rare (§4
// "drawn from a large enough range").
const deltaFracBits = 30

func packPair(c1, c2 int32) int64 { return int64(c1)<<32 | int64(uint32(c2)) }
func pairC1(p int64) int32        { return int32(p >> 32) }
func pairC2(p int64) int32        { return int32(uint32(p)) }

// writeMin atomically lowers *loc to val if val is smaller; it reports
// whether it changed *loc (§2 of the paper) and how many CAS attempts were
// lost to concurrent writers along the way (the contention signal the
// observability layer surfaces per round).
func writeMin(loc *int64, val int64) (changed bool, lost int64) {
	for {
		cur := atomic.LoadInt64(loc)
		if val >= cur {
			return false, lost
		}
		if atomic.CompareAndSwapInt64(loc, cur, val) {
			return true, lost
		}
		lost++
	}
}

// minMachine is the original Miller et al. decomposition with deterministic
// smallest-shift tie-breaking; two passes over the frontier's edges per
// round (paper Algorithm 2). The loop bodies are bound once (see Scratch);
// per-round state flows through the fields, written only by the coordinator
// between parallel sections.
type minMachine struct {
	procs int
	g     *WGraph

	c               []int64
	deltaFrac       []int32
	perm, front     []int32
	cur, nxt        []int32
	base            int
	labels          []int32
	cursor          atomic.Int64
	retries         *obs.ShardedInt64
	liveOut         *obs.ShardedInt64
	draw            *shiftDraw
	fnPre, fnPhase1 func(lo, hi int)
	fnPhase2        func(lo, hi int)
	fnUnsign        func(lo, hi int)
	fnLabels        func(lo, hi int)
	fnFrac          func(lo, hi int)
	seed            uint64
}

//parconn:allow hotalloc machine is constructed once per Scratch and recycled across levels and runs
func newMinMachine() *minMachine {
	m := &minMachine{retries: obs.NewShardedInt64(retryShards),
		liveOut: obs.NewShardedInt64(retryShards), draw: newShiftDraw()}
	// bfsPre: start new BFS's from the permutation prefix whose simulated
	// shift falls below the current round.
	m.fnPre = func(lo, hi int) {
		perm, c := m.perm, m.c
		base := m.base
		out := parallel.NewAppender(m.front, &m.cursor)
		for i := lo; i < hi; i++ {
			v := perm[base+i]
			// perm is a permutation, so only this iteration touches c[v];
			// CAS phases are barrier-separated from this plain-write pass.
			if pairC1(c[v]) != -1 {
				c[v] = packPair(-1, v)
				out.Push(v)
			}
		}
		out.Flush()
	}
	// Phase 1 (paper lines 9-23): mark unvisited neighbors with writeMin;
	// edges to already-visited neighbors are classified now.
	// Lost writeMin races accumulate in a block-local counter flushed once
	// per claimed block — never a Recorder call from inside the section.
	m.fnPhase1 = func(lo, hi int) {
		g, c, deltaFrac, cur := m.g, m.c, m.deltaFrac, m.cur
		var casFail int64
		for fi := lo; fi < hi; fi++ {
			v := cur[fi]
			cv := pairC2(atomic.LoadInt64(&c[v]))
			mark := packPair(deltaFrac[cv], cv)
			start := g.Offs[v]
			d := int64(g.Deg[v])
			var k int64
			for i := int64(0); i < d; i++ {
				w := g.Adj[start+i]
				cw := atomic.LoadInt64(&c[w])
				if pairC1(cw) != -1 {
					// Not yet visited in a previous round: compete for
					// it, and keep the edge — its status is unknown
					// until all writeMins land.
					if mark < cw {
						_, lost := writeMin(&c[w], mark)
						casFail += lost
					}
					g.Adj[start+k] = w
					k++
				} else if cw2 := pairC2(cw); cw2 != cv {
					// Visited earlier, different component: keep as an
					// inter-component edge, relabeled, sign bit set so
					// phase 2 skips it (paper lines 20-22).
					g.Adj[start+k] = -cw2 - 1
					k++
				}
			}
			g.Deg[v] = int32(k)
		}
		m.retries.Add(retryShard(lo), casFail)
	}
	// Phase 2 (paper lines 24-39): the centers whose mark survived claim
	// their neighbors with a CAS; remaining edges are classified.
	m.fnPhase2 = func(lo, hi int) {
		g, c, deltaFrac, cur := m.g, m.c, m.deltaFrac, m.cur
		out := parallel.NewAppender(m.nxt, &m.cursor)
		var casFail, kept int64
		for fi := lo; fi < hi; fi++ {
			v := cur[fi]
			cv := pairC2(atomic.LoadInt64(&c[v]))
			expected := packPair(deltaFrac[cv], cv)
			won := packPair(-1, cv)
			start := g.Offs[v]
			d := int64(g.Deg[v])
			var k int64
			for i := int64(0); i < d; i++ {
				w := g.Adj[start+i]
				if w < 0 {
					// Classified in phase 1; keep.
					g.Adj[start+k] = w
					k++
					continue
				}
				cw := atomic.LoadInt64(&c[w])
				if cw == expected {
					if atomic.CompareAndSwapInt64(&c[w], expected, won) {
						// v won w: add to the next frontier; the edge is
						// intra-component and deleted.
						out.Push(w)
						continue
					}
					// A same-component peer got there first; the slot
					// now holds (-1, cv).
					casFail++
					cw = atomic.LoadInt64(&c[w])
				}
				if cw2 := pairC2(cw); cw2 != cv {
					g.Adj[start+k] = -cw2 - 1
					k++
				}
			}
			g.Deg[v] = int32(k)
			kept += k
		}
		out.Flush()
		sh := retryShard(lo)
		m.retries.Add(sh, casFail)
		// Phase 2 finalizes every frontier vertex's degree exactly once, so
		// these block-local sums add up to the surviving edge count.
		m.liveOut.Add(sh, kept)
	}
	// Unset the sign bits of the surviving (inter-component) edges so the
	// contraction phase sees plain component ids.
	m.fnUnsign = func(lo, hi int) {
		g := m.g
		for v := lo; v < hi; v++ {
			start := g.Offs[v]
			for i := int64(0); i < int64(g.Deg[v]); i++ {
				if e := g.Adj[start+i]; e < 0 {
					g.Adj[start+i] = -e - 1
				}
			}
		}
	}
	// deltaFrac[v] simulates the fractional part of v's exponential shift;
	// only consulted for vertices that become centers.
	m.fnFrac = func(lo, hi int) {
		deltaFrac, seed := m.deltaFrac, m.seed
		for v := lo; v < hi; v++ {
			deltaFrac[v] = int32(prand.Hash32(seed^uint64(v)<<1) & (1<<deltaFracBits - 1))
		}
	}
	// Extract the component ids out of the packed pairs.
	m.fnLabels = func(lo, hi int) {
		c, labels := m.c, m.labels
		// Read-only extraction after the last phase's join barrier; no
		// writer is live.
		for v := lo; v < hi; v++ {
			labels[v] = pairC2(c[v])
		}
	}
	return m
}

func (m *minMachine) run(g *WGraph, opt Options) Result {
	n, procs := g.N, opt.Procs
	if n == 0 {
		//parconn:allow hotalloc empty-graph base case; a zero-length literal is the zerobase pointer, not a heap block
		return Result{Labels: []int32{}}
	}
	t0 := now()
	pool, ws := opt.resolve()
	tn := opt.Tuner
	// Procs is a bound; narrow it to the physical CPU count (DESIGN.md §12).
	procs = tn.Workers(procs)
	m.procs, m.g = procs, g
	// Per-round edge masses for the tuner are estimated as frontier ×
	// average degree; exact tracking costs a random Deg load per claim.
	avgDeg := g.Offs[n] / int64(n)
	if avgDeg < 1 {
		avgDeg = 1
	}
	rec := opt.Recorder
	m.retries.Reset()
	m.liveOut.Reset()

	c := ws.Int64(n)
	deltaFrac := ws.Int32(n)
	m.c, m.deltaFrac, m.seed = c, deltaFrac, opt.Seed
	pool.Blocks(procs, n, 0, m.fnFrac)
	sh := m.draw.newShifts(pool, entry{deg: g.Deg, pairs: c}, opt.Beta, opt.Seed, procs, ws)
	m.perm = sh.order
	live := sh.live()
	var bufs [2][]int32
	bufs[0] = ws.Int32(n)
	bufs[1] = ws.Int32(n)
	curBuf, curN := 0, 0
	phInit := time.Since(t0)

	var phPre, phPhase1, phPhase2 time.Duration
	var prevRetries, retryDelta int64
	permPtr, visited, round := 0, 0, 0
	numCenters, workRounds := sh.settle(rec, opt.Level)
	for visited < live {
		tPre := now()
		if curN == 0 && permPtr < live {
			round = sh.fastForward(round, permPtr)
		}
		end := sh.end(round)
		added := 0
		if end > permPtr {
			m.cursor.Store(int64(curN))
			m.front = bufs[curBuf]
			m.base = permPtr
			pool.Blocks(procs, end-permPtr, 0, m.fnPre)
			permPtr = end
			added = int(m.cursor.Load()) - curN
			curN += added
			numCenters += added
		}
		dPre := time.Since(tPre)
		phPre += dPre
		if curN == 0 {
			if permPtr >= live {
				break // all vertices visited; loop condition ends next check
			}
			// The chunk just scanned was entirely already-visited; advance
			// to the next round that yields new centers.
			continue
		}
		m.cur = bufs[curBuf][:curN]
		m.nxt = bufs[1-curBuf]
		m.cursor.Store(0)

		// Re-tune at the round boundary; both phases sweep the same frontier
		// edge set, so they share one grain decision and the cost EWMA sees
		// the combined wall time over twice the edges.
		curEdges := int64(curN) * avgDeg
		grain := tn.FrontierGrain(procs, curN, curEdges, retryDelta)

		t1 := now()
		pool.Blocks(procs, curN, grain, m.fnPhase1)
		d1 := time.Since(t1)
		phPhase1 += d1

		t2 := now()
		pool.Blocks(procs, curN, grain, m.fnPhase2)
		d2 := time.Since(t2)
		phPhase2 += d2
		tn.Observe(2*curEdges, d1+d2)
		sum := m.retries.Sum()
		retryDelta, prevRetries = sum-prevRetries, sum
		if rec != nil {
			rec.Round(obs.Round{
				Level: opt.Level, Round: round, Frontier: curN, NewCenters: added,
				Duration: dPre + d1 + d2, CASRetries: retryDelta,
			})
		}
		// Count the frontier we just processed as visited (paper line 7);
		// counting at claim time instead would end the loop before the last
		// frontier's edges are classified.
		visited += curN
		curBuf = 1 - curBuf
		curN = int(m.cursor.Load())
		round++
		workRounds++
	}

	tEnd := now()
	pool.Blocks(procs, n, 0, m.fnUnsign)
	labels := ws.Int32(n)
	m.labels = labels
	pool.Blocks(procs, n, 0, m.fnLabels)
	phPhase2 += time.Since(tEnd)

	if rec != nil {
		rec.Phase(obs.Phase{Level: opt.Level, Name: obs.PhaseInit, Duration: phInit})
		rec.Phase(obs.Phase{Level: opt.Level, Name: obs.PhaseBFSPre, Duration: phPre})
		rec.Phase(obs.Phase{Level: opt.Level, Name: obs.PhaseBFSPhase1, Duration: phPhase1})
		rec.Phase(obs.Phase{Level: opt.Level, Name: obs.PhaseBFSPhase2, Duration: phPhase2})
	}

	// Release everything but the labels, whose ownership transfers to the
	// caller, and drop the machine's aliases so the arena's next owner of
	// these buffers is truly exclusive.
	sh.release(ws)
	ws.PutInt32(bufs[0])
	ws.PutInt32(bufs[1])
	ws.PutInt32(deltaFrac)
	ws.PutInt64(c)
	m.g, m.c, m.deltaFrac, m.perm, m.front, m.cur, m.nxt, m.labels = nil, nil, nil, nil, nil, nil, nil, nil
	//parconn:allow scratchlifetime Labels ownership transfers to the caller, who releases it after RELABELUP (see the comment above)
	return Result{Labels: labels, NumCenters: numCenters, Rounds: workRounds,
		CASRetries: m.retries.Sum(), EdgesOut: m.liveOut.Sum()}
}
