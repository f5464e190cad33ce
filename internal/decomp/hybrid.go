package decomp

import (
	"slices"
	"sync/atomic"
	"time"

	"parconn/internal/obs"
	"parconn/internal/parallel"
)

// hybridMachine is Decomp-Arb with Beamer-style direction optimization
// (§4, "Decomp-Arb-Hybrid"): when the frontier holds more than DenseFrac of
// the vertices, the round switches to a read-based pass in which every
// unvisited vertex scans its own neighbors for one on the frontier and
// adopts that neighbor's component — no CAS, early exit, cache-friendly.
//
// Unlike a plain BFS, connectivity must eventually classify every edge as
// intra- or inter-component. A dense round only adopts and leaves every
// list as it found it, so a filterEdges post-pass classifies whatever the
// BFS did not touch. A sparse round classifies the whole list of every
// frontier vertex it processes, so it writes plain relabeled entries and
// records the vertex as fully classified by storing its final degree k as
// Deg[v] = ^k (negative): the claim loop already holds that line. Every
// list filterEdges meets is thus one of two kinds: raw (Deg >= 0, the
// level's input list), which it classifies, or sparse-classified (Deg =
// ^k), whose degree it restores. No list mixes the two, so the paper's
// per-edge sign marks are not needed.
//
// Only the dense pass reads frontier membership, so only a dense round
// writes it: frontRound is filled at a level's first dense round and the
// current frontier is stamped with its round right before each dense pass.
// The sparse and pre passes store nothing outside c, the frontier and the
// processed vertex's own list — no random store queues ahead of a claim
// CAS (DESIGN.md §9, "Latency-tolerant claim loop").
//
// Its round step is that choice plus the chosen pass; filterEdges runs
// after the shared frontier's round loop.
type hybridMachine struct {
	frontier
	frontRound  []int32
	frontFilled bool
	r32         int32
	// drop is the label of the ball whose lists filterEdges drops
	// (Result.Dropped), or NoBall on a level that never went dense.
	drop int32
	// explored estimates the edge mass of frontiers already processed, so
	// liveEdges-explored bounds the edges a dense pass could still touch.
	explored       int64
	denseThreshold int

	fnDense, fnDenseFront, fnSparse, fnFilter, fnFrontFill func(lo, hi int)
}

//parconn:allow hotalloc machine is constructed once per Scratch and recycled across levels and runs
func newHybridMachine() *hybridMachine {
	m := &hybridMachine{}
	m.init()
	m.bindArbPre()
	m.step = m.roundStep
	// Read-based pass: every unvisited vertex looks for any neighbor on the
	// current frontier and adopts its component (early exit, as in the
	// paper's §4). It only adopts: the adopted vertex's list stays raw for
	// the sparse round that processes it, or for filterEdges.
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
			for _, u := range g.Adj[start : start+int64(g.Deg[w])] {
				if frontRound[u] == r32 {
					// c[u] was fixed before this round's fork barrier.
					cw := c[u] //parconn:allow mixedatomic frontier labels were published by the previous round's join barrier
					// Only w's iteration touches c[w] in this pass, so the
					// store needs no atomicity; it stays atomic like the
					// claim loop's CAS on the same slots, which leaves the
					// two plain reads above as this pass's only exemptions.
					atomic.StoreInt32(&c[w], cw)
					out.Push(int32(w))
					break
				}
			}
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
	// frontier vertex it processes, so it writes plain relabeled entries and
	// stores the final degree complemented — filterEdges skips the list,
	// which on skewed graphs removes a whole post-pass over the hub lists.
	// Lost CAS races accumulate in a block-local counter flushed once per
	// claimed block — never a Recorder call from inside the section.
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
				// frontier: the dense pass reads only unvisited vertices'
				// degrees. ^k < 0 marks the list fully classified.
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
	// restored. The rest hold raw input lists: no sparse round processed
	// their vertex.
	//
	// On a level that went dense, the lists of the ball labeled drop are
	// emptied whatever their kind, unread: each of that ball's
	// inter-component edges is also an entry targeting drop in the other
	// endpoint's list, which contraction reverses. A sparse-classified list
	// of the ball was counted when its round ran, so its count comes off
	// again; every kept entry targeting drop counts once more, for the
	// reverse it stands for.
	m.fnFilter = func(lo, hi int) {
		g, c, drop := m.g, m.c, m.drop
		var kept, rev int64
		for v := lo; v < hi; v++ {
			d := g.Deg[v]
			// A level that dropped nothing (a line's, say) only restores
			// complemented degrees; testing drop first keeps this branch
			// predictable on a dense level.
			if drop == NoBall && d < 0 {
				g.Deg[v] = ^d
				continue
			}
			// An edgeless list and a list of the dropped ball take one
			// branch, which on a dense level nearly every vertex takes;
			// the mask selects without another branch: d>>31 is -1 for a
			// complemented degree, whose k = ^d comes off, and 0
			// otherwise. filterEdges runs after the last BFS join barrier;
			// c is read-only here.
			if d == 0 || drop != NoBall && c[v] == drop {
				kept -= int64(^d & (d >> 31))
				g.Deg[v] = 0
				continue
			}
			if d < 0 {
				g.Deg[v] = ^d
				start := g.Offs[v]
				for _, e := range g.Adj[start : start+int64(^d)] {
					if e == drop {
						rev++
					}
				}
				continue
			}
			start := g.Offs[v]
			cv := c[v]
			var k int64
			for _, e := range g.Adj[start : start+int64(d)] {
				t := c[e]
				if t == cv {
					continue
				}
				g.Adj[start+k] = t
				k++
				if t == drop {
					rev++
				}
			}
			g.Deg[v] = int32(k)
			kept += k
		}
		// Every vertex's degree is finalized exactly once — here, or in the
		// sparse round that complemented it — and counted into liveOut by
		// whichever pass did it, so the sums stay exact.
		m.liveOut.Add(retryShard(lo), kept+rev)
	}
	return m
}

// roundStep is the hybrid's round step: the direction choice, then the
// chosen pass. The choice stays the paper's vertex-fraction rule. (An
// edge-mass rule — go dense when few frontier vertices own most edges — was
// tried and measured slower on skewed graphs: with a small frontier the
// read pass loses its early exit and scans nearly every unexplored list to
// the end.)
func (m *hybridMachine) roundStep(round int) bool {
	n, curN := m.g.N, len(m.cur)
	dense := curN > m.denseThreshold
	if dense {
		if !m.frontFilled {
			m.pool.Blocks(m.procs, n, 0, m.fnFrontFill)
			m.frontFilled = true
		}
		m.r32 = int32(round)
		m.pool.Blocks(m.procs, curN, 0, m.fnDenseFront)
		// The dense pass scans every vertex and at worst the unexplored
		// lists.
		unexplored := max(m.liveEdges-m.explored, 0)
		m.pool.Blocks(m.procs, n, parallel.FrontierGrain(m.procs, n, int64(n)+unexplored, 0), m.fnDense)
	} else {
		m.pool.Blocks(m.procs, curN, m.sparseGrain(), m.fnSparse)
	}
	m.explored += int64(curN) * m.avgDeg
	return dense
}

func (m *hybridMachine) run(g *WGraph, opt Options) Result {
	t0 := now()
	m.begin(g, opt)
	n := g.N
	m.explored = 0
	m.denseThreshold = int(opt.DenseFrac * float64(n))
	c := m.ws.Int32(n)
	m.c, m.frontFilled = c, false
	if m.denseThreshold < n {
		// frontRound[v] is the last round at which v was on a dense
		// round's frontier; the dense pass tests membership with it
		// instead of a bitmap (no per-round clearing needed). It is filled
		// only at the level's first dense round, so a level that never
		// goes dense holds it but never touches it.
		m.frontRound = m.ws.Int32(n)
	}
	st := m.rounds(opt, entry{deg: g.Deg, c: c}, t0)

	tFilter := now()
	m.drop = NoBall
	if m.frontFilled {
		// Dense rounds leave lists unclassified, and one ball tends to
		// swallow most of the level: filterEdges drops that ball's lists.
		// Which ball is dropped changes only the speed, never the output.
		m.drop = largestBall(c)
	}
	m.pool.Blocks(m.procs, n, parallel.FrontierGrain(m.procs, n, m.liveEdges, 0), m.fnFilter)
	dFilter := time.Since(tFilter)
	if rec := opt.Recorder; rec != nil {
		st.phases(rec, opt.Level)
		rec.Phase(obs.Phase{Level: opt.Level, Name: obs.PhaseBFSSparse, Duration: st.sparse})
		rec.Phase(obs.Phase{Level: opt.Level, Name: obs.PhaseBFSDense, Duration: st.dense})
		rec.Phase(obs.Phase{Level: opt.Level, Name: obs.PhaseFilterEdges, Duration: dFilter})
	}
	if m.frontRound != nil {
		m.ws.PutInt32(m.frontRound)
	}
	m.c, m.frontRound = nil, nil
	res := m.result(c, st)
	res.dropped = m.drop + 1
	//parconn:allow scratchlifetime Labels ownership transfers to the caller, who releases it after RELABELUP
	return res
}

// ballSample is how many evenly spaced labels largestBall reads.
const ballSample = 1024

// largestBall guesses the label of the level's largest ball: the most
// frequent of ballSample evenly spaced labels of c, ties to the smaller
// label. The sample lives on the stack and depends on c alone, so the guess
// allocates nothing and is deterministic for given labels.
func largestBall(c []int32) int32 {
	var s [ballSample]int32
	n := len(c)
	for i := range s {
		s[i] = c[i*n/ballSample]
	}
	slices.Sort(s[:])
	best, bestRun, run := s[0], 0, 0
	for i, l := range s {
		if i > 0 && l != s[i-1] {
			run = 0
		}
		if run++; run > bestRun {
			best, bestRun = l, run
		}
	}
	return best
}
