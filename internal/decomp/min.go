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
// round (paper Algorithm 2) make its round step, and unsigning the
// surviving edges and extracting the labels its end-of-level pass. The
// round loop is the shared frontier's.
type minMachine struct {
	frontier
	pairs     []int64 // the packed (c1, c2) slot of every vertex
	deltaFrac []int32
	labels    []int32
	seed      uint64
	phase1    time.Duration

	fnPhase1, fnPhase2, fnUnsign, fnLabels, fnFrac func(lo, hi int)
}

//parconn:allow hotalloc machine is constructed once per Scratch and recycled across levels and runs
func newMinMachine() *minMachine {
	m := &minMachine{}
	m.init()
	// bfsPre: start new BFS's from the permutation prefix whose simulated
	// shift falls below the current round.
	m.fnPre = func(lo, hi int) {
		perm, c := m.perm, m.pairs
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
	// Both phases sweep the same frontier edge set, so they share one
	// grain decision.
	m.step = func(int) bool {
		grain := m.sparseGrain()
		t1 := now()
		m.pool.Blocks(m.procs, len(m.cur), grain, m.fnPhase1)
		m.phase1 += time.Since(t1)
		m.pool.Blocks(m.procs, len(m.cur), grain, m.fnPhase2)
		return false
	}
	// Phase 1 (paper lines 9-23): mark unvisited neighbors with writeMin;
	// edges to already-visited neighbors are classified now.
	// Lost writeMin races accumulate in a block-local counter flushed once
	// per claimed block — never a Recorder call from inside the section.
	m.fnPhase1 = func(lo, hi int) {
		g, c, deltaFrac, cur := m.g, m.pairs, m.deltaFrac, m.cur
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
		g, c, deltaFrac, cur := m.g, m.pairs, m.deltaFrac, m.cur
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
		c, labels := m.pairs, m.labels
		// Read-only extraction after the last phase's join barrier; no
		// writer is live.
		for v := lo; v < hi; v++ {
			labels[v] = pairC2(c[v])
		}
	}
	return m
}

func (m *minMachine) run(g *WGraph, opt Options) Result {
	t0 := now()
	m.begin(g, opt)
	n, ws := g.N, m.ws
	m.phase1 = 0
	m.pairs, m.deltaFrac, m.seed = ws.Int64(n), ws.Int32(n), opt.Seed
	m.pool.Blocks(m.procs, n, 0, m.fnFrac)
	st := m.rounds(opt, entry{deg: g.Deg, pairs: m.pairs}, t0)

	// The end-of-level pass is charged to phase 2, whose last round left
	// the sign bits it clears.
	tEnd := now()
	m.pool.Blocks(m.procs, n, 0, m.fnUnsign)
	labels := ws.Int32(n)
	m.labels = labels
	m.pool.Blocks(m.procs, n, 0, m.fnLabels)
	phase2 := st.sparse - m.phase1 + time.Since(tEnd)
	if rec := opt.Recorder; rec != nil {
		st.phases(rec, opt.Level)
		rec.Phase(obs.Phase{Level: opt.Level, Name: obs.PhaseBFSPhase1, Duration: m.phase1})
		rec.Phase(obs.Phase{Level: opt.Level, Name: obs.PhaseBFSPhase2, Duration: phase2})
	}
	ws.PutInt32(m.deltaFrac)
	ws.PutInt64(m.pairs)
	m.pairs, m.deltaFrac, m.labels = nil, nil, nil
	//parconn:allow scratchlifetime Labels ownership transfers to the caller, who releases it after RELABELUP
	return m.result(labels, st)
}
