package decomp

import (
	"sync/atomic"
	"time"

	"parconn/internal/obs"
	"parconn/internal/parallel"
)

// hybridMachine is Decomp-Arb with Beamer-style direction optimization
// (§4, "Decomp-Arb-Hybrid"): when the frontier holds more than DenseFrac of
// the vertices, the round switches to a read-based pass in which every
// unvisited vertex scans its own neighbors for one on the frontier and
// adopts that neighbor's component — no atomics, early exit, cache-friendly.
//
// Unlike a plain BFS, connectivity must eventually classify every edge as
// intra- or inter-component; dense rounds skip that work, so a filterEdges
// post-pass classifies whatever the BFS did not touch. A sparse round
// classifies the whole list of every frontier vertex it processes, so it
// writes plain relabeled entries and records the vertex as fully classified
// by storing its final degree k as Deg[v] = ^k (negative): the claim loop
// already holds that line. filterEdges restores Deg[v] and skips the list.
// (The paper's §4 per-edge sign marks survive only for the fused dense
// pass, which leaves mixed classified/raw lists behind.)
//
// Only the dense pass reads frontier membership, so only a dense round
// writes it: frontRound is filled at a level's first dense round and the
// current frontier is stamped with its round right before each dense pass.
// The sparse and pre passes store nothing outside c, the frontier and the
// processed vertex's own list — no random store queues ahead of a claim
// CAS (DESIGN.md §9, "Latency-tolerant claim loop").
//
// The loop bodies are bound once (see Scratch); per-round state flows
// through the fields, written only by the coordinator between parallel
// sections.

type hybridMachine struct {
	procs int
	g     *WGraph

	c, frontRound, perm []int32
	front, cur, nxt     []int32
	base                int
	r32                 int32
	cursor              atomic.Int64
	retries             *obs.ShardedInt64
	liveOut             *obs.ShardedInt64
	draw                *shiftDraw

	fnPre, fnDense, fnDenseFront, fnSparse, fnFilter func(lo, hi int)
	fnFrontFill                                      func(lo, hi int)
}

//parconn:allow hotalloc machine is constructed once per Scratch and recycled across levels and runs
func newHybridMachine() *hybridMachine {
	m := &hybridMachine{retries: obs.NewShardedInt64(retryShards),
		liveOut: obs.NewShardedInt64(retryShards), draw: newShiftDraw()}
	// bfsPre: start new BFS's from the permutation prefix whose simulated
	// shift falls below the current round (paper lines 5-6).
	m.fnPre = func(lo, hi int) {
		perm, c := m.perm, m.c
		base := m.base
		out := parallel.NewAppender(m.front, &m.cursor)
		for i := lo; i < hi; i++ {
			v := perm[base+i]
			// perm is a permutation, so only this iteration touches c[v];
			// CAS rounds are barrier-separated from this plain-write pass.
			if c[v] == unvisited {
				c[v] = v
				out.Push(v)
			}
		}
		out.Flush()
	}
	// Read-based pass with fused edge deletion: every unvisited vertex
	// looks for any neighbor on the current frontier and adopts its
	// component (early exit, as in the paper's §4); a vertex that adopts
	// then classifies its whole edge list in the same CSR pass —
	// same-component edges are deleted on the fly, known inter-component
	// edges are sign-marked like the sparse pass's, and edges to
	// still-unvisited neighbors stay raw for a later round or filterEdges.
	// On the dominant dense level-0 rounds this replaces the separate
	// decompose-then-filterEdges sweeps with one fused pass.
	m.fnDense = func(lo, hi int) {
		g, c, frontRound := m.g, m.c, m.frontRound
		r32 := m.r32
		out := parallel.NewAppender(m.nxt, &m.cursor)
		for w := lo; w < hi; w++ {
			// Only w's own iteration writes c[w] during the dense pass, so
			// the plain read cannot tear against the owner store below.
			if c[w] != unvisited { //parconn:allow mixedatomic owner-slot read: no other iteration writes c[w] in this section
				continue
			}
			start := g.Offs[int32(w)]
			d := int64(g.Deg[w])
			cw := unvisited
			for i := int64(0); i < d; i++ {
				u := g.Adj[start+i]
				if frontRound[u] == r32 {
					// c[u] was fixed before this round's fork barrier.
					cw = c[u] //parconn:allow mixedatomic frontier labels were published by the previous round's join barrier
					break
				}
			}
			if cw == unvisited {
				continue
			}
			// Publish the adoption atomically: concurrent fused sweeps
			// read neighbors' slots, and they must observe either
			// unvisited or the final label.
			atomic.StoreInt32(&c[w], cw)
			out.Push(int32(w))
			var k int64
			for i := int64(0); i < d; i++ {
				u := g.Adj[start+i]
				// A racy read that still sees unvisited while u adopts
				// concurrently only defers the edge to filterEdges; any
				// label it does see is u's final one, so the
				// classification is exact either way (the advisory-stats
				// argument of DESIGN.md §12 does not even apply here).
				cu := atomic.LoadInt32(&c[u])
				switch {
				case cu == unvisited:
					g.Adj[start+k] = u // unknown yet: a later round or filterEdges classifies it
					k++
				case cu != cw:
					g.Adj[start+k] = -cu - 1 // inter-component: keep, marked classified
					k++
				}
				// cu == cw: intra-component, deleted on the fly.
			}
			g.Deg[w] = int32(k)
		}
		out.Flush()
	}
	// frontRound starts at -1, a round no frontier has: the fill at a
	// level's first dense round.
	m.fnFrontFill = func(lo, hi int) {
		frontRound := m.frontRound[lo:hi]
		for i := range frontRound {
			frontRound[i] = -1
		}
	}
	// Stamp the dense round's frontier (the previous round's claims plus
	// this round's new centers) with the round number the dense pass tests.
	m.fnDenseFront = func(lo, hi int) {
		cur, frontRound, r32 := m.cur, m.frontRound, m.r32
		for _, v := range cur[lo:hi] {
			frontRound[v] = r32
		}
	}
	// Write-based pass: Decomp-Arb's single CAS pass, walked in staged
	// batches (stagedLists). It classifies every surviving edge of the
	// frontier vertex it processes, so it writes plain relabeled entries
	// (unmarking any a fused dense round already classified) and stores the
	// final degree complemented — filterEdges skips the list, which on skewed
	// graphs removes a whole post-pass over the hub lists. Lost CAS races
	// accumulate in a block-local counter flushed once per claimed block —
	// never a Recorder call from inside the section.
	m.fnSparse = func(lo, hi int) {
		g, c, cur := m.g, m.c, m.cur
		out := parallel.NewAppender(m.nxt, &m.cursor)
		var casFail, kept int64
		var st stagedLists
		for b := lo; b < hi; b += claimBatch {
			batch := cur[b:min(b+claimBatch, hi)]
			st.stage(g, c, batch, 0)
			for j, v := range batch {
				cv := c[v] //parconn:allow mixedatomic c[v] was claimed by CAS in an earlier round; the join barrier publishes it
				start, d := st.start[j], st.deg[j]
				var k int64
				for i := int64(0); i < d; i++ {
					w := g.Adj[start+i]
					if w < 0 {
						// Already classified by a fused dense round (v
						// adopted there and pre-filtered its list); unmark
						// in place.
						g.Adj[start+k] = -w - 1
						k++
						continue
					}
					if atomic.LoadInt32(&c[w]) == unvisited {
						if atomic.CompareAndSwapInt32(&c[w], unvisited, cv) {
							out.Push(w)
							continue
						}
						casFail++ // raced for w and lost to another frontier vertex
					}
					if cw := atomic.LoadInt32(&c[w]); cw != cv {
						g.Adj[start+k] = cw
						k++
					}
				}
				// Only v's processing round writes Deg[v] once v is on a
				// frontier: the dense pass reads and writes only unvisited
				// vertices' degrees. ^k < 0 marks the list fully classified.
				g.Deg[v] = ^int32(k)
				kept += k
			}
		}
		out.Flush()
		sh := retryShard(lo)
		m.retries.Add(sh, casFail)
		// A fully classified vertex's degree is final here and filterEdges
		// skips it, so its surviving edges are counted in this block sum.
		m.liveOut.Add(sh, kept)
	}
	// filterEdges: classify every surviving edge the BFS did not. A negative
	// degree marks a vertex a sparse round processed: its list already holds
	// plain relabeled entries and was counted then, so only its degree is
	// restored. The rest hold raw original lists (claimed during a round but
	// never push-processed) or the mixed marked/raw lists a fused dense
	// adoption leaves behind.
	m.fnFilter = func(lo, hi int) {
		g, c := m.g, m.c
		var kept int64
		for v := lo; v < hi; v++ {
			d := g.Deg[v]
			if d < 0 {
				g.Deg[v] = ^d
				continue
			}
			start := g.Offs[v]
			// filterEdges runs after the last BFS join barrier; c is
			// read-only here.
			cv := c[v]
			var k int64
			for i := int64(0); i < int64(d); i++ {
				e := g.Adj[start+i]
				if e < 0 {
					g.Adj[start+k] = -e - 1
					k++
				} else if cw := c[e]; cw != cv {
					g.Adj[start+k] = cw
					k++
				}
			}
			g.Deg[v] = int32(k)
			kept += k
		}
		// Every vertex's degree is finalized exactly once — here, or in the
		// sparse round that complemented it — and counted into liveOut by
		// whichever pass did it, so the sums stay exact.
		m.liveOut.Add(retryShard(lo), kept)
	}
	return m
}

func (m *hybridMachine) run(g *WGraph, opt Options) Result {
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
	// Level-entry edge count (Offs is the frozen CSR layout). Per-round edge
	// masses for the tuner are estimated as frontier × average degree: exact
	// tracking (summing claimed vertices' degrees) was measured to cost more
	// than it buys — one extra random Deg load per claimed vertex, a cache
	// miss each — and the grain decision only needs the magnitude.
	liveEdges := g.Offs[n]
	avgDeg := liveEdges / int64(n)
	if avgDeg < 1 {
		avgDeg = 1
	}
	rec := opt.Recorder
	m.retries.Reset()
	m.liveOut.Reset()

	c := ws.Int32(n)
	m.c = c
	sh := m.draw.newShifts(pool, entry{deg: g.Deg, c: c}, opt.Beta, opt.Seed, procs, ws)
	m.perm = sh.order
	live := sh.live()
	var bufs [2][]int32
	bufs[0] = ws.Int32(n)
	bufs[1] = ws.Int32(n)
	curBuf, curN := 0, 0
	phInit := time.Since(t0)

	var phPre, phDense, phSparse time.Duration
	var prevRetries, retryDelta int64
	// explored estimates the edge mass of frontiers already processed, so
	// liveEdges-explored bounds the edges a dense pass could still touch.
	var explored int64
	denseThreshold := int(opt.DenseFrac * float64(n))
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
		// Direction choice stays the paper's vertex-fraction rule. (An
		// edge-mass rule — go dense when few frontier vertices own most
		// edges — was tried and measured slower on skewed graphs: with a
		// small frontier the read pass loses its early exit and scans
		// nearly every unexplored list to the end.)
		curEdges := int64(curN) * avgDeg
		unexplored := liveEdges - explored
		if unexplored < 0 {
			unexplored = 0
		}
		dense := curN > denseThreshold
		m.cur = bufs[curBuf][:curN]
		m.nxt = bufs[1-curBuf]
		m.cursor.Store(0)

		// Re-tune at the round boundary: estimated edge work for this round
		// (the sparse pass scans the frontier's edge mass, the dense pass
		// at worst the unexplored lists), previous round's contention, and
		// the measured wall time fed back into the cost EWMA.
		var dRound time.Duration
		var roundEdges int64
		if dense {
			tDense := now()
			if m.frontRound == nil {
				// frontRound[v] is the last round at which v was on a dense
				// round's frontier; the dense pass tests membership with it
				// instead of a bitmap (no per-round clearing needed). Levels
				// that never go dense never acquire it.
				m.frontRound = ws.Int32(n)
				pool.Blocks(procs, n, 0, m.fnFrontFill)
			}
			m.r32 = int32(round)
			pool.Blocks(procs, curN, 0, m.fnDenseFront)
			roundEdges = unexplored
			pool.Blocks(procs, n, tn.FrontierGrain(procs, n, int64(n)+roundEdges, 0), m.fnDense)
			dRound = time.Since(tDense)
			phDense += dRound
		} else {
			tSparse := now()
			roundEdges = curEdges
			pool.Blocks(procs, curN, tn.FrontierGrain(procs, curN, roundEdges, retryDelta), m.fnSparse)
			dRound = time.Since(tSparse)
			phSparse += dRound
		}
		tn.Observe(roundEdges, dRound)
		sum := m.retries.Sum()
		retryDelta, prevRetries = sum-prevRetries, sum
		if rec != nil {
			rec.Round(obs.Round{
				Level: opt.Level, Round: round, Frontier: curN, NewCenters: added,
				Dense: dense, Duration: dPre + dRound, CASRetries: retryDelta,
			})
		}
		// Count the frontier we just processed as visited (paper line 7);
		// counting at claim time instead would end the loop before the last
		// frontier's edges are classified.
		visited += curN
		explored += curEdges
		curBuf = 1 - curBuf
		curN = int(m.cursor.Load())
		round++
		workRounds++
	}

	tFilter := now()
	pool.Blocks(procs, n, tn.FrontierGrain(procs, n, liveEdges, 0), m.fnFilter)
	dFilter := time.Since(tFilter)

	if rec != nil {
		rec.Phase(obs.Phase{Level: opt.Level, Name: obs.PhaseInit, Duration: phInit})
		rec.Phase(obs.Phase{Level: opt.Level, Name: obs.PhaseBFSPre, Duration: phPre})
		rec.Phase(obs.Phase{Level: opt.Level, Name: obs.PhaseBFSSparse, Duration: phSparse})
		rec.Phase(obs.Phase{Level: opt.Level, Name: obs.PhaseBFSDense, Duration: phDense})
		rec.Phase(obs.Phase{Level: opt.Level, Name: obs.PhaseFilterEdges, Duration: dFilter})
	}

	// Release everything but the labels, whose ownership transfers to the
	// caller, and drop the machine's aliases so the arena's next owner of
	// these buffers is truly exclusive.
	sh.release(ws)
	ws.PutInt32(bufs[0])
	ws.PutInt32(bufs[1])
	if m.frontRound != nil {
		ws.PutInt32(m.frontRound)
	}
	m.g, m.c, m.frontRound, m.perm, m.front, m.cur, m.nxt = nil, nil, nil, nil, nil, nil, nil
	//parconn:allow scratchlifetime Labels ownership transfers to the caller, who releases it after RELABELUP (see the comment above)
	return Result{Labels: c, NumCenters: numCenters, Rounds: workRounds,
		CASRetries: m.retries.Sum(), EdgesOut: m.liveOut.Sum()}
}
