package decomp

import (
	"sync/atomic"
	"time"

	"parconn/internal/obs"
	"parconn/internal/parallel"
)

// retryShard maps a block's low index to a shard of the per-machine
// sharded accumulators. The divisor is the baseline frontier grain (the
// tuner varies the actual grain per round; any spreading function works
// here, it only needs to keep concurrent blocks off one cache line).
func retryShard(lo int) int { return lo / parallel.FrontierGrain }

// retryShards sizes the per-machine sharded CAS-retry accumulator; block
// indices hash into it, so it only needs to cover plausible worker counts.
const retryShards = 64

// arbMachine runs Algorithm 3 of the paper: one pass per round over the
// frontier's edges; the first CAS to reach an unvisited vertex wins it. The
// loop bodies are bound once (see Scratch); per-round state flows through
// the fields, which only the coordinating goroutine writes, between
// parallel sections (the pool's fork/join establishes the ordering).
type arbMachine struct {
	pool  *parallel.Pool
	procs int
	g     *WGraph

	c, parents, perm []int32
	front, cur, nxt  []int32
	base             int
	edgeParallel     int
	cursor           atomic.Int64
	retries          *obs.ShardedInt64
	liveOut          *obs.ShardedInt64
	draw             *shiftDraw

	fnPre, fnMain func(lo, hi int)
}

//parconn:allow hotalloc machine is constructed once per Scratch and recycled across levels and runs
func newArbMachine() *arbMachine {
	m := &arbMachine{retries: obs.NewShardedInt64(retryShards),
		liveOut: obs.NewShardedInt64(retryShards), draw: newShiftDraw()}
	// bfsPre: start new BFS's from the permutation prefix whose simulated
	// shift falls below the current round (paper lines 5-6).
	m.fnPre = func(lo, hi int) {
		perm, c, parents := m.perm, m.c, m.parents
		base := m.base
		out := parallel.NewAppender(m.front, &m.cursor)
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
	// bfsMain: single pass over the frontier's edges (paper lines 9-20),
	// walked in staged batches (stagedLists; hubs bound for the
	// edge-parallel path are not touched). Lost CAS races accumulate in a
	// block-local counter flushed once per claimed block — never a Recorder
	// call from inside the section.
	m.fnMain = func(lo, hi int) {
		g, c, parents, cur, nxt := m.g, m.c, m.parents, m.cur, m.nxt
		procs := m.procs
		edgePar := int64(m.edgeParallel)
		out := parallel.NewAppender(nxt, &m.cursor)
		var casFail, kept int64
		var st stagedLists
		for b := lo; b < hi; b += claimBatch {
			batch := cur[b:min(b+claimBatch, hi)]
			st.stage(g, c, batch, edgePar)
			for j, v := range batch {
				cv := c[v] //parconn:allow mixedatomic c[v] was claimed by CAS in an earlier round; the join barrier publishes it
				start, d := st.start[j], st.deg[j]
				if edgePar > 0 && d >= edgePar {
					// Publish what this block staged so far first, so a
					// serial section keeps appending in scan order.
					out.Flush()
					kept += processEdgesParallel(m.pool, g, c, parents, v, cv, nxt, &m.cursor, procs)
					continue
				}
				var k int64
				for i := int64(0); i < d; i++ {
					w := g.Adj[start+i]
					if atomic.LoadInt32(&c[w]) == unvisited {
						if atomic.CompareAndSwapInt32(&c[w], unvisited, cv) {
							if parents != nil {
								parents[w] = v
							}
							out.Push(w)
							continue
						}
						casFail++ // raced for w and lost to another frontier vertex
					}
					if cw := atomic.LoadInt32(&c[w]); cw != cv {
						// Inter-component edge: keep it, relabeled to the
						// neighbor's component id (paper line 18).
						g.Adj[start+k] = cw
						k++
					}
				}
				g.Deg[v] = int32(k)
				kept += k
			}
		}
		out.Flush()
		sh := retryShard(lo)
		m.retries.Add(sh, casFail)
		// Every vertex passes through exactly one fnMain as a frontier
		// member, and its degree is final afterwards, so these block-local
		// sums add up to the surviving (inter-component) edge count.
		m.liveOut.Add(sh, kept)
	}
	return m
}

func (m *arbMachine) run(g *WGraph, opt Options) Result {
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
	m.pool, m.procs, m.g = pool, procs, g
	// liveEdges is the level's entering directed edge count (Offs is the
	// frozen CSR layout, so Offs[n] is exactly the live total at entry).
	// Per-round edge masses for the tuner are estimated as frontier ×
	// average degree; exact tracking costs a random Deg load per claim.
	liveEdges := g.Offs[n]
	avgDeg := liveEdges / int64(n)
	if avgDeg < 1 {
		avgDeg = 1
	}
	m.edgeParallel = opt.EdgeParallel
	if m.edgeParallel == 0 {
		m.edgeParallel = tn.EdgeParallelCutoff(procs, liveEdges)
	}
	rec := opt.Recorder
	m.retries.Reset()
	m.liveOut.Reset()

	c := ws.Int32(n)
	var parents []int32
	if opt.WantParents {
		// Parents are a rarely-requested result handed to the caller;
		// plain allocation keeps their ownership out of the arena. The
		// entry pass fills them with c.
		//parconn:allow hotalloc rarely-requested caller-owned result, deliberately outside the arena
		parents = make([]int32, n)
	}
	m.c, m.parents = c, parents
	sh := m.draw.newShifts(pool, entry{deg: g.Deg, c: c, parents: parents}, opt.Beta, opt.Seed, procs, ws)
	m.perm = sh.order
	live := sh.live()
	// Double-buffered frontier: cur = bufs[curBuf][:curN]; the next frontier
	// accumulates in the other buffer through an atomic cursor.
	var bufs [2][]int32
	bufs[0] = ws.Int32(n)
	bufs[1] = ws.Int32(n)
	curBuf, curN := 0, 0
	phInit := time.Since(t0)

	var phPre, phMain time.Duration
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

		tMain := now()
		m.cur = bufs[curBuf][:curN]
		m.nxt = bufs[1-curBuf]
		m.cursor.Store(0)
		// Re-tune at the round boundary: grain from the frontier's
		// estimated edge mass and the previous round's contention, then
		// feed the measured wall time back into the cost EWMA.
		curEdges := int64(curN) * avgDeg
		grain := tn.FrontierGrain(procs, curN, curEdges, retryDelta)
		pool.Blocks(procs, curN, grain, m.fnMain)
		dMain := time.Since(tMain)
		phMain += dMain
		tn.Observe(curEdges, dMain)
		sum := m.retries.Sum()
		retryDelta, prevRetries = sum-prevRetries, sum
		if rec != nil {
			rec.Round(obs.Round{
				Level: opt.Level, Round: round, Frontier: curN, NewCenters: added,
				Duration: dPre + dMain, CASRetries: retryDelta,
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

	if rec != nil {
		rec.Phase(obs.Phase{Level: opt.Level, Name: obs.PhaseInit, Duration: phInit})
		rec.Phase(obs.Phase{Level: opt.Level, Name: obs.PhaseBFSPre, Duration: phPre})
		rec.Phase(obs.Phase{Level: opt.Level, Name: obs.PhaseBFSMain, Duration: phMain})
	}

	// Release everything but the labels, whose ownership transfers to the
	// caller, and drop the machine's aliases so the arena's next owner of
	// these buffers is truly exclusive.
	sh.release(ws)
	ws.PutInt32(bufs[0])
	ws.PutInt32(bufs[1])
	m.g, m.c, m.parents, m.perm, m.front, m.cur, m.nxt = nil, nil, nil, nil, nil, nil, nil
	//parconn:allow scratchlifetime Labels ownership transfers to the caller, who releases it after RELABELUP (see the comment above)
	return Result{Labels: c, NumCenters: numCenters, Rounds: workRounds, Parents: parents,
		CASRetries: m.retries.Sum(), EdgesOut: m.liveOut.Sum()}
}
