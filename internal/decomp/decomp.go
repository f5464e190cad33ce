// Package decomp implements the parallel low-diameter graph decomposition of
// Miller, Peng, Xu (SPAA'13) and the two engineered variants introduced by
// Shun, Dhulipala, Blelloch (SPAA'14, §4):
//
//   - Min: the original algorithm ("Decomp-Min"). Ties between BFS's
//     arriving at a vertex in the same round are broken by the smallest
//     fractional shift value via an atomic writeMin, requiring two phases
//     per round (Algorithm 2 of the paper).
//   - Arb: ties broken arbitrarily ("Decomp-Arb", Algorithm 3) — a single
//     phase per round using one CAS per first visit. The paper proves this
//     still yields a (2β, O(log n / β)) decomposition (Theorem 2).
//   - ArbHybrid: Decomp-Arb plus Beamer-style direction optimization
//     ("Decomp-Arb-Hybrid"): rounds whose frontier exceeds 20% of the
//     vertices switch to a read-based pass over unvisited vertices, with a
//     final filterEdges pass classifying the edges the dense rounds skipped.
//
// All variants operate destructively on a WGraph: intra-component edges are
// deleted on the fly, inter-component edges are compacted to the front of
// each vertex's edge segment and their targets relabeled to the owning
// component's id (the paper's in-place packing described in §4). After
// Decompose returns, WGraph holds every inter-component edge, ready for
// contraction: Min, Arb and sparse-only ArbHybrid levels hold both
// directions, and an ArbHybrid level that ran a dense round drops the edge
// lists of its largest ball L (Result.Dropped), so each inter-component
// edge with one endpoint in L's ball is held once, in the other endpoint's
// list, with target L; contraction emits the reverse.
package decomp

import (
	"fmt"
	"math"
	"sync/atomic"

	"parconn/internal/intsort"
	"parconn/internal/obs"
	"parconn/internal/parallel"
	"parconn/internal/prand"
	"parconn/internal/workspace"
)

// Variant selects the decomposition algorithm.
type Variant int

const (
	// Min is the original Miller et al. algorithm with deterministic
	// smallest-shift tie-breaking (Decomp-Min).
	Min Variant = iota
	// Arb breaks ties arbitrarily (Decomp-Arb).
	Arb
	// ArbHybrid is Arb with direction-optimizing dense rounds
	// (Decomp-Arb-Hybrid).
	ArbHybrid
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case Min:
		return "decomp-min"
	case Arb:
		return "decomp-arb"
	case ArbHybrid:
		return "decomp-arb-hybrid"
	default:
		return fmt.Sprintf("decomp-variant(%d)", int(v))
	}
}

// unvisited marks a vertex no BFS has reached yet (Arb / ArbHybrid).
const unvisited = int32(-1)

// The defaults a zero Options.Beta and Options.DenseFrac select: a Beta
// inside the paper's empirically best 0.05-0.2 band (Figure 3), and the
// paper's 20% dense-round threshold.
const (
	DefaultBeta      = 0.2
	DefaultDenseFrac = 0.2
)

// Options configures a decomposition.
type Options struct {
	// Beta is the decomposition parameter: ball radii are O(log n / Beta)
	// and at most Beta*m (2*Beta*m for Arb variants) edges cross partitions
	// in expectation. Must be in (0, 1). Zero means DefaultBeta.
	Beta float64
	// Seed drives the random permutation and the fractional shifts.
	Seed uint64
	// Procs bounds worker parallelism; <= 0 means GOMAXPROCS.
	Procs int
	// DenseFrac is the frontier fraction above which ArbHybrid switches to
	// the read-based dense round. Zero means DefaultDenseFrac.
	DenseFrac float64
	// EdgeParallel, when positive, processes the edge lists of frontier
	// vertices whose live degree is at least this threshold with a nested
	// parallel loop plus a pack, instead of sequentially (§4: "for
	// high-degree vertices the inner sequential for-loops ... can be
	// replaced with a parallel for-loop, marking the deleted edges with a
	// special value and packing the edges with a parallel prefix sums").
	// Zero means the adaptive cutoff (parallel.EdgeParallelCutoff): it
	// scales with the level's live edge count per worker and is off at one
	// worker, so it only fires on lists that are a meaningful fraction of
	// the level's work — effectively off for the paper's inputs, matching
	// its final configuration, without leaving star-like graphs serialized
	// on one hub. Only the Arb variant reads it.
	EdgeParallel int
	// Recorder, if non-nil, receives the structured event stream (one Round
	// event per BFS round, per-phase durations, CAS retry counts); see
	// internal/obs. Recorder methods are invoked only by the coordinating
	// goroutine, between parallel sections. nil costs one pointer test.
	Recorder obs.Recorder
	// Level tags emitted events with the contraction recursion depth; the
	// connectivity driver sets it, standalone decompositions leave it 0.
	Level int
	// WantParents asks the Arb variant to record the BFS tree: the claim
	// edges (parent[w] = the frontier vertex whose CAS captured w; centers
	// are their own parents). The per-cluster trees are exactly the
	// shortest-path trees the decomposition grows, which spanner
	// construction consumes. Only honored by the Arb variant.
	WantParents bool
	// Pool, if non-nil, supplies the worker pool used for the
	// decomposition's main parallel loops; nil means the shared
	// parallel.Default pool.
	Pool *parallel.Pool
	// Workspace, if non-nil, supplies the scratch arena frontier buffers,
	// shift arrays, and labels are acquired from; nil means the shared
	// workspace.Default arena. Result.Labels is acquired here and its
	// ownership transfers to the caller (release it back or let the GC
	// have it).
	Workspace *workspace.Arena
	// Scratch, if non-nil, caches the per-variant bound-closure machines
	// across Decompose calls (one recursion's levels, typically) so the
	// steady state allocates no closures. Must not be shared by
	// concurrent Decompose calls.
	Scratch *Scratch
}

// resolve returns the effective pool and arena for opt.
func (o Options) resolve() (*parallel.Pool, *workspace.Arena) {
	pool := o.Pool
	if pool == nil {
		pool = parallel.Default()
	}
	ws := o.Workspace
	if ws == nil {
		ws = workspace.Default()
	}
	return pool, ws
}

func (o Options) withDefaults() Options {
	if o.Beta == 0 {
		o.Beta = DefaultBeta
	}
	if o.DenseFrac == 0 {
		o.DenseFrac = DefaultDenseFrac
	}
	o.Procs = parallel.Procs(o.Procs)
	return o
}

//parconn:allow hotalloc cold rejection path; formats an error at most once per Decompose call
func (o Options) validate() error {
	// The negated comparisons are NaN-proof: NaN fails every ordered
	// comparison, so "x <= 0 || x >= 1" would wave NaN through into the
	// shift computation.
	if !(o.Beta > 0 && o.Beta < 1) {
		return fmt.Errorf("decomp: beta %v out of (0,1)", o.Beta)
	}
	if !(o.DenseFrac >= 0 && o.DenseFrac <= 1) {
		return fmt.Errorf("decomp: dense fraction %v out of [0,1]", o.DenseFrac)
	}
	if o.EdgeParallel < 0 {
		return fmt.Errorf("decomp: edge-parallel threshold %d negative", o.EdgeParallel)
	}
	return nil
}

// Result of a decomposition.
type Result struct {
	// Labels[v] is the id of the center whose ball captured v; vertices
	// with the same label form one partition. A center c has Labels[c]==c.
	Labels []int32
	// NumCenters is the number of partitions: BFS's started, plus the
	// vertices settled at entry as their own centers.
	NumCenters int
	// Rounds is the number of BFS rounds executed (the maximum ball radius
	// plus center-insertion rounds), plus one for the settle step when it
	// settled any vertex.
	Rounds int
	// Parents holds the BFS claim tree when Options.WantParents was set
	// (nil otherwise): Parents[w] is the vertex that captured w, and
	// centers have Parents[c] == c. Within each partition the parent edges
	// form a shortest-path tree rooted at the center.
	Parents []int32
	// CASRetries counts lost CAS/writeMin races across the whole
	// decomposition — the contention the paper's arbitrary tie-breaking
	// tolerates instead of serializing.
	CASRetries int64
	// EdgesOut is the number of directed inter-component edges of the
	// decomposed graph: the entries the WGraph holds plus one implied
	// reverse per entry that targets Dropped (so LiveEdges falls short of
	// it when a ball's lists were dropped). The machines accumulate it in
	// their final classification passes, so the connectivity driver needs
	// no extra reduction to decide its base case.
	EdgesOut int64
	// dropped is the label of the ball whose lists were dropped, plus one,
	// so the zero value names none: label 0 is a valid label.
	dropped int32
}

// NoBall is what Result.Dropped returns when no ball's lists were dropped.
const NoBall = int32(-1)

// Dropped returns the label L of the ball whose edge lists the hybrid's
// filterEdges emptied, or NoBall. Every inter-component edge with one
// endpoint in L's ball is then held once, in the other endpoint's list,
// with target L; a consumer that needs both directions adds (L, label of
// the holder) for each entry that targets L. Min, Arb and hybrid levels
// that never went dense drop nothing.
func (r Result) Dropped() int32 { return r.dropped - 1 }

// Decompose runs the selected variant on g, destructively (see package doc).
func Decompose(g *WGraph, variant Variant, opt Options) (Result, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return Result{}, err
	}
	if variant < Min || variant > ArbHybrid {
		//parconn:allow hotalloc cold error path for an unknown variant
		return Result{}, fmt.Errorf("decomp: unknown variant %d", int(variant))
	}
	if g.N == 0 {
		//parconn:allow hotalloc empty-graph base case; a zero-length literal is the zerobase pointer, not a heap block
		return Result{Labels: []int32{}}, nil
	}
	sc := opt.Scratch
	if sc == nil {
		//parconn:allow hotalloc fallback scratch for one-shot callers; level loops pass a reusable Scratch
		sc = &Scratch{}
	}
	switch variant {
	case Min:
		return sc.minM().run(g, opt), nil
	case Arb:
		return sc.arbM().run(g, opt), nil
	default:
		return sc.hybridM().run(g, opt), nil
	}
}

// shifts realizes the exponential start-time shifts of Miller et al.: each
// vertex v draws delta_v ~ Exp(beta), and its BFS may start at round
// floor(delta_max - delta_v) — the largest shift starts first, which is what
// makes early centers few and balls large; the number of vertices becoming
// eligible per round grows by a factor ~e^beta ("chunks of vertices from the
// beginning of the permutation, where the chunk size grows exponentially",
// §4). order lists the live vertices by start round (a uniform random
// permutation refined by round boundaries), and cum[r] counts live vertices
// with start round <= r, so round r's new centers are the still-unvisited
// vertices in order[cum[r-1]:cum[r]].
//
// A vertex with no edges at level entry is settled before the round loop:
// it is its own center, it can never claim or be claimed, so drawing it a
// round, scanning it in the pre pass and walking it on a frontier would be
// pure overhead (on a KeepDuplicates rMat more than half the input is
// edgeless). The settle step keeps every vertex's draw, so dmax and every
// live vertex's start round — hence the live order and every frontier —
// are what they would be without it; settled vertices only drop out of
// order (they sort into a trailing bucket past the live prefix). Contracted
// levels have no edgeless vertices, so there the bucket is empty.
//
// The paper replaces the draws with a permutation and analytic chunk sizes;
// we keep the actual draws (same O(n) cost, deterministic per seed) because
// the analytic rounding is degenerate on very small remainder graphs — with
// n=2 and e^beta-1 > 1 it deterministically starts both vertices every
// level and the recursion never bottoms out, whereas the true process
// separates them with constant probability per level.
type shifts struct {
	order   []int32 // the live vertices by start round
	cum     []int32
	settled int // vertices settled at entry (n - len(order))
}

// entry is what the level-entry pass initializes besides the start rounds:
// the label slot of every vertex, unvisited for a live vertex and its own
// id for a settled one, in exactly one of c (Arb, ArbHybrid) and pairs
// (Min, whose packed (c1, c2) slot settles to (-1, v)); and, when the BFS
// tree is wanted, its parent, likewise.
type entry struct {
	deg     []int32 // the level's degrees; Deg[v] == 0 settles v
	c       []int32
	pairs   []int64
	parents []int32
}

// shiftDraw is the parallel draw of the shifts and the level-entry pass that
// settles edgeless vertices and buckets the rest by start round, with its
// loop bodies and counting pass bound once per machine (see Scratch) so a
// level allocates no closure. Each draw block also folds its maximum into
// dmaxBits, one CAS per block, which replaces a separate max-reduction pass.
type shiftDraw struct {
	entry
	deltas   []float64
	start    []int32 // start round of each vertex; the trailing bucket for a settled one
	beta     float64
	seed     uint64
	dmaxBits atomic.Uint64 // math.Float64bits of the largest delta drawn so far
	dmax     float64
	last     int32 // the trailing bucket's key: one past the last start round
	fn       func(lo, hi int)
	fnStart  func(lo, hi int)
	rounds   intsort.Sorter // stable counting pass from start rounds to order
}

//parconn:allow hotalloc the draw loop is bound once per machine, which a Scratch recycles across levels and runs
func newShiftDraw() *shiftDraw {
	d := &shiftDraw{}
	d.fn = func(lo, hi int) {
		deltas, beta, seed := d.deltas, d.beta, d.seed
		local := 0.0
		for v := lo; v < hi; v++ {
			x := prand.ExpFromUniform(prand.Hash64(seed^(uint64(v)+0x51ed2701)), beta)
			deltas[v] = x
			local = max(local, x)
		}
		for {
			old := d.dmaxBits.Load()
			if local <= math.Float64frombits(old) ||
				d.dmaxBits.CompareAndSwap(old, math.Float64bits(local)) {
				return
			}
		}
	}
	// The entry pass reads each degree once and selects with a mask, not a
	// branch: live = (d | -d) >> 31 is -1 for Deg[v] > 0 and 0 for an
	// edgeless v, and an input's mix of the two (54/46 on rMat) would
	// mispredict a branch on every other vertex.
	d.fnStart = func(lo, hi int) {
		deltas, start, deg, dmax, last := d.deltas, d.start, d.deg, d.dmax, d.last
		c, pairs, parents := d.c, d.pairs, d.parents
		for v := lo; v < hi; v++ {
			x := deg[v]
			live := (x | -x) >> 31
			start[v] = int32(dmax-deltas[v])&live | last&^live
			// A live vertex gets unvisited (-1 == live), a settled one v.
			cv := live | int32(v)&^live
			if c != nil {
				c[v] = cv
			} else {
				l64 := int64(live)
				pairs[v] = packPair(minInf, minInf)&l64 | packPair(-1, int32(v))&^l64
			}
			if parents != nil {
				parents[v] = cv
			}
		}
	}
	return d
}

// newShifts draws the shifts on pool, settles the edgeless vertices of
// e.deg into e's slots, and buckets the live vertices by start round with
// intsort's stable counting pass, so order lists each round's vertices in
// increasing id. Its scratch (deltas, start rounds) and its results (order,
// cum) come from ws. The scratch is released before returning, and the
// caller releases order and cum via shifts.release when the decomposition's
// round loop ends.
func (d *shiftDraw) newShifts(pool *parallel.Pool, e entry, beta float64, seed uint64, procs int, ws *workspace.Arena) shifts {
	n := len(e.deg)
	deltas := ws.Float64(n)
	d.deltas, d.beta, d.seed = deltas, beta, seed
	// Every delta is >= 0, so 0 is a neutral start for the max.
	d.dmaxBits.Store(0)
	pool.Blocks(procs, n, 0, d.fn)
	d.dmax = math.Float64frombits(d.dmaxBits.Load())
	rounds := int(d.dmax) + 1
	start := ws.Int32(n)
	d.start, d.entry, d.last = start, e, int32(rounds)
	pool.Blocks(procs, n, 0, d.fnStart)
	d.deltas, d.start, d.entry = nil, nil, entry{}
	order := ws.Int32(n)
	cum := ws.Int32(rounds + 1)
	d.rounds.Order(pool, procs, start, rounds+1, order, cum)
	ws.PutFloat64(deltas)
	ws.PutInt32(start)
	live := int(cum[rounds-1])
	//parconn:allow scratchlifetime order and cum transfer to the round loop and are released via shifts.release
	return shifts{order: order[:live], cum: cum[:rounds], settled: n - live}
}

// release returns the shift arrays to the arena; s must not be used after.
func (s shifts) release(ws *workspace.Arena) {
	ws.PutInt32(s.order)
	ws.PutInt32(s.cum)
}

// live returns the number of vertices the round loop schedules.
func (s shifts) live() int { return len(s.order) }

// end returns the number of live vertices whose start round is <= round.
func (s shifts) end(round int) int {
	if round >= len(s.cum) {
		return len(s.order)
	}
	if round < 0 {
		return 0
	}
	return int(s.cum[round])
}

// fastForward returns the smallest round >= r whose schedule end exceeds
// ptr, which must be below live(). Used when the frontier goes empty: with
// no active BFS, idle rounds are no-ops, so we jump to the round that
// produces the next center.
func (s shifts) fastForward(r, ptr int) int {
	for s.end(r) <= ptr {
		r++
	}
	return r
}

// settle reports the settled vertices as the level's first Round event,
// numbered -1 (before the schedule's first round) with them as both its
// frontier and its new centers, so a level's Round events still sum to its
// components. It returns the centers and rounds they count for.
func (s shifts) settle(rec obs.Recorder, level int) (centers, rounds int) {
	if s.settled == 0 {
		return 0, 0
	}
	if rec != nil {
		rec.Round(obs.Round{Level: level, Round: -1, Frontier: s.settled, NewCenters: s.settled})
	}
	return s.settled, 1
}

// countVisited is a helper for stats assertions in tests.
func countVisited(labels []int32) int {
	c := 0
	for _, l := range labels {
		if l != unvisited {
			c++
		}
	}
	return c
}
