package decomp

import (
	"sync/atomic"

	"parconn/internal/obs"
	"parconn/internal/parallel"
)

// arbMachine runs Algorithm 3 of the paper: one pass per round over the
// frontier's edges; the first CAS to reach an unvisited vertex wins it. Its
// round step is that one pass (fnMain); the round loop is the shared
// frontier's.
type arbMachine struct {
	frontier
	edgeParallel int
	fnMain       func(lo, hi int)
}

//parconn:allow hotalloc machine is constructed once per Scratch and recycled across levels and runs
func newArbMachine() *arbMachine {
	m := &arbMachine{}
	m.init()
	m.bindArbPre()
	m.step = func(int) bool {
		m.pool.Blocks(m.procs, len(m.cur), m.sparseGrain(), m.fnMain)
		return false
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
	t0 := now()
	m.begin(g, opt)
	n := g.N
	m.edgeParallel = opt.EdgeParallel
	if m.edgeParallel == 0 {
		m.edgeParallel = parallel.EdgeParallelCutoff(m.procs, m.liveEdges)
	}
	c := m.ws.Int32(n)
	m.c = c
	if opt.WantParents {
		// Parents are a rarely-requested result handed to the caller;
		// plain allocation keeps their ownership out of the arena. The
		// entry pass fills them with c.
		//parconn:allow hotalloc rarely-requested caller-owned result, deliberately outside the arena
		m.parents = make([]int32, n)
	}
	st := m.rounds(opt, entry{deg: g.Deg, c: c, parents: m.parents}, t0)
	if rec := opt.Recorder; rec != nil {
		st.phases(rec, opt.Level)
		rec.Phase(obs.Phase{Level: opt.Level, Name: obs.PhaseBFSMain, Duration: st.sparse})
	}
	m.c = nil
	//parconn:allow scratchlifetime Labels ownership transfers to the caller, who releases it after RELABELUP
	return m.result(c, st)
}
