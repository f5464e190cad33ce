// Package core implements the paper's primary contribution: the
// decomposition-based linear-work parallel connectivity algorithm
// (Algorithm 1 of Shun, Dhulipala, Blelloch, SPAA'14).
//
// CC recursively (1) runs a low-diameter decomposition with a constant beta,
// (2) contracts every partition to a single vertex, dropping intra-partition
// and (optionally) duplicate edges, and (3) recurses on the contracted graph
// until no edges remain, relabeling back up on return (RELABELUP). Since
// each decomposition cuts at most a 2*beta fraction of edges in expectation,
// the edge count shrinks geometrically: O(log n) levels and O(m) total work
// in expectation, O(log^3 n) depth w.h.p.
//
// The hot path is engineered to be allocation-free in the steady state:
// scratch buffers come from a workspace.Arena (acquired per level, released
// on the way back up, so level k+1 reuses level k's memory), parallel
// sections run on a persistent worker pool, and every per-level loop body
// is a closure bound once inside a pooled ccMachine (Go's escape analysis
// is path-insensitive, so a closure literal handed to the scheduler would
// otherwise heap-allocate at each of the O(levels) creations).
package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parconn/internal/decomp"
	"parconn/internal/graph"
	"parconn/internal/hashtable"
	"parconn/internal/intsort"
	"parconn/internal/obs"
	"parconn/internal/parallel"
	"parconn/internal/prand"
	"parconn/internal/workspace"
)

// DedupMode selects how duplicate edges between contracted components are
// removed before recursing.
type DedupMode int

const (
	// DedupHash removes duplicates with the phase-concurrent hash table
	// (the paper's choice, §4) when a sample of the level's pairs shows
	// heavy duplication, at most 1/16 of them distinct (see repeated), and
	// by sorting and compacting otherwise: the table pays only when it
	// shrinks the sort's input a lot. Both paths produce the same pairs, so
	// labels do not depend on the choice.
	DedupHash DedupMode = iota
	// DedupSort removes duplicates by sorting and compacting.
	DedupSort
	// DedupNone keeps duplicates. The edge count still drops by a constant
	// factor in expectation (the paper notes this ablation explicitly); on
	// most real graphs duplicates are where the bulk of the reduction comes
	// from, so this mode is markedly slower.
	DedupNone
)

// String names the mode for harness output.
func (d DedupMode) String() string {
	switch d {
	case DedupHash:
		return "hash"
	case DedupSort:
		return "sort"
	case DedupNone:
		return "none"
	default:
		return fmt.Sprintf("dedup(%d)", int(d))
	}
}

// Options configures a connectivity run.
type Options struct {
	// Variant selects the decomposition (Min, Arb, ArbHybrid). The zero
	// value is Min; most callers want Arb or ArbHybrid.
	Variant decomp.Variant
	// Beta is the decomposition parameter; zero means decomp.DefaultBeta.
	Beta float64
	// Seed drives all randomness; each recursion level derives its own.
	Seed uint64
	// Procs bounds worker parallelism; <= 0 means GOMAXPROCS.
	Procs int
	// DenseFrac is ArbHybrid's dense-round threshold; zero means
	// decomp.DefaultDenseFrac.
	DenseFrac float64
	// EdgeParallel, when positive, processes edge lists of frontier
	// vertices with at least this degree using nested parallelism (§4's
	// optional high-degree optimization; only the Arb variant reads it).
	// Zero means the adaptive cutoff, which scales with the level's live
	// edge count and is off at one worker (parallel.EdgeParallelCutoff).
	EdgeParallel int
	// Dedup selects duplicate-edge removal during contraction.
	Dedup DedupMode
	// Recorder, if non-nil, receives the structured event stream: level
	// start/end, per-round, per-phase, and end-of-run counter events (see
	// internal/obs). With a Recorder attached, the coordinating goroutine's
	// samples are also labelled (parconn_level / parconn_phase) so CPU
	// profiles attribute them to the recursion structure; pool workers
	// start outside any label scope and carry none. nil costs one pointer
	// test per site.
	Recorder obs.Recorder
	// Pool, if non-nil, supplies the worker pool for the run's parallel
	// sections; nil means the shared parallel.Default pool.
	Pool *parallel.Pool
	// Workspace, if non-nil, supplies the scratch arena for per-level
	// buffers; nil means the shared workspace.Default arena.
	Workspace *workspace.Arena
}

// maxLevels is a defensive bound on recursion depth. The expected number of
// levels is O(log m); hitting this bound indicates the edge count stopped
// shrinking, which the geometric-decrease guarantee makes astronomically
// unlikely — treat it as an internal error rather than looping forever.
const maxLevels = 128

// ccMachine carries one CC invocation's scheduler handle, scratch arena,
// per-level working graphs, and the bound closures for the contraction and
// relabel loops. Machines are pooled (machinePool) so repeated CC calls
// reuse both the closures and the decomposition machines; the per-section
// fields below the fold are written only by the coordinating goroutine
// between parallel sections.
type ccMachine struct {
	pool    *parallel.Pool
	ws      *workspace.Arena
	procs   int
	opt     Options
	scratch decomp.Scratch

	// levels[k] is level k's working graph (level 0 copies the input, its
	// Offs shared with the caller's graph; deeper levels are arena-backed).
	levels [maxLevels + 1]decomp.WGraph

	// Current-section state for the bound closures.
	w              *decomp.WGraph
	labels         []int32
	drop           int32        // the decomposition's Result.Dropped
	revCursor      atomic.Int64 // next free slot of the reverse pairs
	blockOut       []int64
	pairs          []uint64
	bits           uint
	mask           uint64
	rep, idx       []int32
	subOffs        []int64
	subAdj, subDeg []int32
	subLabels      []int32
	hashed         int64 // pairs the last contract sent through the hash pre-pass

	// The contraction primitives, kept with their bound block bodies and
	// block scratch so a warm level allocates nothing but its sections.
	set    hashtable.Set
	sorter intsort.Sorter
	scan32 parallel.Scan[int32]
	scan64 parallel.Scan[int64]
	pack   parallel.Packer[uint64]

	fnCount, fnPairs, fnInsert, fnFirst, fnRank, fnSubAdj func(lo, hi int)
	fnRelabelReps, fnShortcut                             func(lo, hi int)
	fnDistinct                                            func(i int) bool
}

// labelCtx holds, for every possible recursion depth, the pprof label
// contexts of a level's two phases, so labeling allocates nothing per level.
var labelCtx = func() (a [maxLevels + 1]struct{ decompose, contract context.Context }) {
	for i := range a {
		level := strconv.Itoa(i)
		a[i].decompose = pprof.WithLabels(context.Background(), pprof.Labels("parconn_level", level, "parconn_phase", "decompose"))
		a[i].contract = pprof.WithLabels(context.Background(), pprof.Labels("parconn_level", level, "parconn_phase", "contract"))
	}
	return a
}()

// machinePool recycles ccMachines across CC calls; a machine is exclusively
// owned between Get and Put.
var machinePool = sync.Pool{New: func() any { return newCCMachine() }}

func newCCMachine() *ccMachine {
	m := &ccMachine{}
	// Surviving directed edges per pairGrain block of vertices: the pair
	// gather's output offsets once scanned (the PackInto idiom). A serial
	// section hands the whole range to one call, so count block by block.
	m.fnCount = func(lo, hi int) {
		deg, blockOut := m.w.Deg, m.blockOut
		for b := lo; b < hi; b += pairGrain {
			var c int64
			for _, d := range deg[b:min(b+pairGrain, hi)] {
				c += int64(d)
			}
			blockOut[b/pairGrain] = c
		}
	}
	// Gather the surviving directed edges as packed (srcCenter, tgtCenter)
	// pairs, skipping vertices with none. Targets were relabeled to center
	// ids during the decomposition; the source is its own label (the
	// paper's "we only need to relabel the source endpoint"), a sequential
	// read. The output of a contiguous vertex range is contiguous, so a call
	// spanning several blocks writes on from its first block's offset.
	//
	// The dropped ball's lists are empty, and each of its inter-component
	// edges is held once, as an entry targeting it on the other side, so
	// each such entry also yields its reverse, (drop, src): the pairs are
	// the same multiset as with every list kept. A call rereads the pairs
	// it just wrote for them and appends them past the forward pairs
	// through revCursor; their order there does not matter, as every mode
	// sorts the pairs.
	m.fnPairs = func(lo, hi int) {
		w, labels, pairs, bits, drop := m.w, m.labels, m.pairs, m.bits, m.drop
		first := m.blockOut[lo/pairGrain]
		out := first
		var rev int64
		for v := lo; v < hi; v++ {
			d := w.Deg[v]
			if d == 0 {
				continue
			}
			src := uint64(uint32(labels[v])) << bits
			base := w.Offs[v]
			for _, tgt := range w.Adj[base : base+int64(d)] {
				pairs[out] = src | uint64(uint32(tgt))
				out++
				if tgt == drop {
					rev++
				}
			}
		}
		if rev == 0 {
			return
		}
		at := m.revCursor.Add(rev) - rev
		dropPair, target := uint64(uint32(drop))<<bits, uint64(uint32(drop))
		for _, p := range pairs[first:out] {
			if p&m.mask == target {
				pairs[at] = dropPair | p>>bits
				at++
			}
		}
	}
	m.fnInsert = func(lo, hi int) {
		set, pairs := &m.set, m.pairs
		for i := lo; i < hi; i++ {
			set.Insert(pairs[i])
		}
	}
	// Keep the first pair of each run of equal sorted pairs.
	m.fnDistinct = func(i int) bool {
		pairs := m.pairs
		return i == 0 || pairs[i] != pairs[i-1]
	}
	// Flag the first pair of each source in subAdj's storage; the exclusive
	// scan of the flags ranks the components that keep an edge. Because the
	// edge set is symmetric, every such component is also some pair's
	// target, and singletons (no surviving edge) get no rank.
	m.fnFirst = func(lo, hi int) {
		pairs, flags, bits := m.pairs, m.subAdj, m.bits
		for i := lo; i < hi; i++ {
			flags[i] = 0
			if i == 0 || pairs[i-1]>>bits != pairs[i]>>bits {
				flags[i] = 1
			}
		}
	}
	// At each source's first pair, with r its scanned rank: rep[r] = the
	// center, idx[center] = r, and the contracted CSR offset of r.
	m.fnRank = func(lo, hi int) {
		pairs, ranks, rep, idx, subOffs, bits := m.pairs, m.subAdj, m.rep, m.idx, m.subOffs, m.bits
		for i := lo; i < hi; i++ {
			if i == 0 || pairs[i-1]>>bits != pairs[i]>>bits {
				src, r := int32(pairs[i]>>bits), ranks[i]
				rep[r], idx[src], subOffs[r] = src, r, int64(i)
			}
		}
	}
	// Map targets into rank space; each first pair also sets its source's
	// degree (subOffs is complete, so no source has a gap to fill).
	m.fnSubAdj = func(lo, hi int) {
		pairs, subAdj, idx, subOffs, subDeg := m.pairs, m.subAdj, m.idx, m.subOffs, m.subDeg
		bits, mask := m.bits, m.mask
		for i := lo; i < hi; i++ {
			if i == 0 || pairs[i-1]>>bits != pairs[i]>>bits {
				r := subAdj[i]
				subDeg[r] = int32(subOffs[r+1] - subOffs[r])
			}
			subAdj[i] = idx[int32(pairs[i]&mask)]
		}
	}
	// RELABELUP, first half: point every surviving center at the center of
	// its contracted vertex's root. rep and subLabels are read-only here and
	// each rep[j] is written once.
	m.fnRelabelReps = func(lo, hi int) {
		labels, rep, subLabels := m.labels, m.rep, m.subLabels
		for j := lo; j < hi; j++ {
			labels[rep[j]] = rep[subLabels[j]]
		}
	}
	// RELABELUP, second half: one pointer jump. A root center r has
	// labels[r] == r, so centers are never written, and non-centers read
	// only their own entry and a center's. Dropped singletons kept their
	// center label (paper: "singleton vertices are removed, but their
	// labels are kept").
	m.fnShortcut = func(lo, hi int) {
		labels := m.labels
		for v := lo; v < hi; v++ {
			x := labels[v]
			if l := labels[x]; l != x {
				labels[v] = l
			}
		}
	}
	return m
}

// reset drops all per-call references so a pooled machine retains nothing
// (slices, option pointers) between CC calls.
func (m *ccMachine) reset() {
	m.pool, m.ws, m.opt = nil, nil, Options{}
	m.w, m.labels, m.blockOut, m.pairs = nil, nil, nil, nil
	m.rep, m.idx = nil, nil
	m.subOffs, m.subAdj, m.subDeg, m.subLabels = nil, nil, nil, nil
}

// CC computes a connected-components labeling of g. The returned labeling
// assigns every vertex the id of a canonical vertex of its component, so
// labels[v] == labels[u] iff u and v are connected, and labels[labels[v]] ==
// labels[v].
func CC(g *graph.Graph, opt Options) ([]int32, error) {
	opt.Procs = parallel.Procs(opt.Procs)
	if opt.Beta == 0 {
		opt.Beta = decomp.DefaultBeta
	}
	// Negated comparison so NaN (which fails every ordered comparison) is
	// rejected rather than waved through into the shift computation.
	if !(opt.Beta > 0 && opt.Beta < 1) {
		return nil, fmt.Errorf("core: beta %v out of (0,1)", opt.Beta)
	}
	// The setup stopwatch opens before the machine is acquired so a cold
	// pool miss (closure binding, levels array) is charged to a phase
	// rather than silently widening the wall-vs-phases gap.
	tSetup := now()
	m := machinePool.Get().(*ccMachine)
	m.opt = opt
	// Procs is a bound; narrow it to the physical CPU count (oversubscribed
	// workers only add preemption; DESIGN.md §12).
	m.procs = parallel.Workers(opt.Procs)
	m.pool = opt.Pool
	if m.pool == nil {
		m.pool = parallel.Default()
	}
	m.ws = opt.Workspace
	if m.ws == nil {
		m.ws = workspace.Default()
	}
	rec := opt.Recorder
	var joins0, reused0, alloc0 int64
	if rec != nil {
		joins0 = m.pool.Joins()
		reused0, alloc0 = m.ws.Stats()
	}
	w := &m.levels[0]
	m.scratch.InitWGraph(w, m.pool, m.ws, g, m.procs)
	if rec != nil {
		rec.Phase(obs.Phase{Level: 0, Name: obs.PhaseSetup, Duration: time.Since(tSetup)})
	}
	labels, err := m.ccLevel(w, 0, int64(len(w.Adj)))
	if rec != nil {
		reused1, alloc1 := m.ws.Stats()
		rec.Counter(obs.Counter{Name: obs.CounterArenaReused, Value: reused1 - reused0})
		rec.Counter(obs.Counter{Name: obs.CounterArenaAlloc, Value: alloc1 - alloc0})
		rec.Counter(obs.Counter{Name: obs.CounterPoolJoins, Value: m.pool.Joins() - joins0})
	}
	// The level-0 Offs belong to the caller's graph; only the working
	// copy's Adj/Deg go back to the arena.
	m.ws.PutInt32(w.Adj)
	m.ws.PutInt32(w.Deg)
	*w = decomp.WGraph{}
	m.reset()
	machinePool.Put(m)
	return labels, err
}

// ccLevel runs one level of Algorithm 1 on the working graph w — which
// enters with edges live directed edges (level 0 passes the input size,
// deeper levels the parent contraction's exact output count, so no
// per-level edge reduction is ever needed) — and returns labels in w's
// vertex space (values are canonical w-vertices). The labels slice is
// arena-acquired; ownership passes to the caller (released after the
// parent level's RELABELUP, or handed to the user at level 0).
//
// The directive below roots the hotalloc analysis: everything reachable
// from here is the per-level steady state that must stay allocation-free.
//
//parconn:hotpath
func (m *ccMachine) ccLevel(w *decomp.WGraph, level int, edges int64) ([]int32, error) {
	if level >= maxLevels {
		return nil, fmt.Errorf("core: recursion exceeded %d levels; edge count is not decreasing", maxLevels)
	}
	if w.N == 0 {
		//parconn:allow hotalloc empty-graph base case; a zero-length literal is the zerobase pointer, not a heap block
		return []int32{}, nil
	}
	procs := m.procs
	rec := m.opt.Recorder
	// Tiny-level fast path (DESIGN.md §12): below parallel.SerialLevel's
	// threshold the whole level — decomposition rounds and contraction —
	// runs with one worker; the late levels are a long tail of
	// sub-millisecond graphs whose parallel sections would be pure
	// fork/join overhead.
	if parallel.SerialLevel(w.N, edges) {
		procs = 1
	}

	// Step 1: decompose. Each level derives an independent seed so repeated
	// decompositions do not reuse the same permutation. With a recorder
	// attached the level opens with its entering sizes and the
	// decomposition's samples on this goroutine carry pprof labels.
	if rec != nil {
		rec.LevelStart(obs.LevelStart{Level: level, Vertices: w.N, EdgesIn: edges})
		pprof.SetGoroutineLabels(labelCtx[level].decompose)
	}
	res, err := decomp.Decompose(w, m.opt.Variant, decomp.Options{
		Beta:         m.opt.Beta,
		Seed:         m.opt.Seed + uint64(level)*0x9e3779b97f4a7c15,
		Procs:        procs,
		DenseFrac:    m.opt.DenseFrac,
		EdgeParallel: m.opt.EdgeParallel,
		Recorder:     rec,
		Level:        level,
		Pool:         m.pool,
		Workspace:    m.ws,
		Scratch:      &m.scratch,
	})
	if rec != nil {
		pprof.SetGoroutineLabels(context.Background())
	}
	if err != nil {
		return nil, err
	}
	labels := res.Labels // labels[v] = center id owning v

	// The machines accumulate the inter-component edge count in their final
	// classification passes, so the base-case test costs nothing (the
	// paper's |E'| = 0 check; LiveEdges would be an extra O(n) reduction
	// here, and falls short once a dense level dropped a ball's lists).
	cut := res.EdgesOut
	end := obs.LevelEnd{
		Level:      level,
		Vertices:   w.N,
		EdgesIn:    edges,
		EdgesCut:   cut,
		Components: res.NumCenters,
		Rounds:     res.Rounds,
		CASRetries: res.CASRetries,
	}
	if cut == 0 {
		// Base case (|E'| == 0): every component was swallowed by a single
		// ball; the decomposition labels are the final labels.
		if rec != nil {
			rec.LevelEnd(end)
		}
		return labels, nil
	}

	// Step 2: contract (timed as the paper's "contractGraph" phase; labelled
	// like the decomposition on the recorder path).
	tCt := now()
	sub := &m.levels[level+1]
	if rec != nil {
		pprof.SetGoroutineLabels(labelCtx[level].contract)
	}
	rep, edgesOut := m.contract(procs, w, sub, res)
	ctDur := time.Since(tCt)
	if rec != nil {
		pprof.SetGoroutineLabels(context.Background())
		rec.Counter(obs.Counter{Name: obs.CounterHashedPairs, Value: m.hashed})
		end.EdgesOut = edgesOut
		rec.LevelEnd(end)
	}

	// Step 3: recurse on the contracted graph. edgesOut is exact (post
	// dedup, len(sub.Adj)), so the child never re-measures.
	subLabels, err := m.ccLevel(sub, level+1, edgesOut)
	if err != nil {
		return nil, err
	}
	// The sub-graph is fully consumed (the recursion destroyed its edges
	// and its labels are in hand); all three arrays are arena-backed.
	m.ws.PutInt64(sub.Offs)
	m.ws.PutInt32(sub.Adj)
	m.ws.PutInt32(sub.Deg)
	*sub = decomp.WGraph{}

	// Step 4: RELABELUP. The arrays sat in locals across the recursive
	// call, which reused the machine fields for deeper levels. Relabeling
	// is charged to this level's contract phase, so the Phase event lands
	// after the deeper levels' events — sinks accumulate by (level, name),
	// not by arrival order.
	tRl := now()
	m.relabelUp(procs, labels, rep, subLabels)
	if rec != nil {
		rec.Phase(obs.Phase{Level: level, Name: obs.PhaseContract, Duration: ctDur + time.Since(tRl)})
	}

	m.ws.PutInt32(rep)
	m.ws.PutInt32(subLabels)
	return labels, nil
}

// relabelUp is RELABELUP: it maps labels (this level's centers) through
// subLabels (the contracted graph's canonical labeling) back to canonical
// vertices of this level, in place. The surviving centers are relabeled
// first, then every vertex takes one pointer jump (the "shortcut" step of
// Liu and Tarjan's concurrent labeling algorithms).
func (m *ccMachine) relabelUp(procs int, labels, rep, subLabels []int32) {
	m.labels, m.rep, m.subLabels = labels, rep, subLabels
	m.pool.Blocks(procs, len(rep), 0, m.fnRelabelReps)
	m.pool.Blocks(procs, len(labels), 0, m.fnShortcut)
	m.labels, m.rep, m.subLabels = nil, nil, nil
}

// pairGrain is the vertex block size of contract's pair gather, whose
// per-block counts are its output offsets.
const pairGrain = 4 * parallel.BaseFrontierGrain

// contract builds the next-level working graph into sub with procs workers
// (one on a tiny level, where no section forks): components become
// vertices, intra-component edges are already gone, duplicate
// inter-component edges are removed per opt.Dedup, and singleton components
// (no remaining edges) are dropped. res is w's decomposition: its labels,
// and the ball whose lists it dropped, each entry targeting which also
// yields its reverse pair (res.EdgesOut counts both). Every pass runs over
// surviving edges except the two reads of the degree array: the pairs are
// keyed by center ids, so no n-wide renumbering happens. It returns the
// center of each
// contracted vertex (rep, arena-acquired; the caller releases it after
// RELABELUP) and the directed edge count of the contracted graph. Scratch
// internal to one step (block offsets, pairs, hash slots, sort buffer, idx)
// is released before returning, so the recursion below immediately reuses
// it.
//
//parconn:allow scratchlifetime ownership transfers by contract: sub plus the returned buffers are released by the caller's level epilogue
func (m *ccMachine) contract(procs int, w *decomp.WGraph, sub *decomp.WGraph, res decomp.Result) (rep []int32, edgesOut int64) {
	ws, pool := m.ws, m.pool
	n := w.N
	m.w, m.labels, m.drop = w, res.Labels, res.Dropped()

	blockOut := ws.Int64((n + pairGrain - 1) / pairGrain)
	m.blockOut = blockOut
	pool.Blocks(procs, n, pairGrain, m.fnCount)
	total := m.scan64.Exclusive(pool, procs, blockOut, blockOut)
	bits := uint(intsort.Bits(uint64(max(1, n-1))))
	m.bits = bits
	m.mask = uint64(1)<<bits - 1
	size := total
	if m.drop != decomp.NoBall {
		size = res.EdgesOut // the reverse pairs follow the forward ones
	}
	pairs := ws.Uint64(int(size))
	m.pairs = pairs
	m.revCursor.Store(total)
	pool.Blocks(procs, n, pairGrain, m.fnPairs)
	if m.revCursor.Load() != size {
		panic("core: the reverse pairs do not fill the decomposition's cut count")
	}
	ws.PutInt64(blockOut)
	m.blockOut = nil

	// Deduplicate and sort. Every mode ends with pairs sorted by
	// (src, tgt), which the CSR build below requires. DedupHash hashes
	// first, so the integer sort only handles unique pairs, but only when
	// a sample shows enough repeats to pay for the table; otherwise it
	// sorts and compacts like DedupSort. Both yield the same sorted unique
	// pairs, so the choice never changes a label.
	m.hashed = 0
	if m.opt.Dedup == DedupHash && repeated(pairs) {
		m.hashed = int64(len(pairs))
		slots := ws.Uint64(hashtable.SizeFor(len(pairs)))
		m.set.ResetOn(pool, procs, slots)
		pool.Blocks(procs, len(pairs), 0, m.fnInsert)
		uniq := ws.Uint64(m.set.Len())
		m.set.ElementsInto(pool, procs, uniq)
		m.set.Drop()
		ws.PutUint64(slots)
		ws.PutUint64(pairs)
		pairs = uniq
		m.pairs = pairs
	}
	scratch := ws.Uint64(len(pairs))
	m.sorter.Sort(pool, procs, pairs, int(2*bits), scratch)
	if m.opt.Dedup == DedupNone || m.hashed > 0 {
		ws.PutUint64(scratch)
	} else {
		// Drop adjacent duplicates by packing into the sort's scratch,
		// which then replaces pairs.
		u := m.pack.Into(pool, procs, scratch, pairs, m.fnDistinct)
		ws.PutUint64(pairs)
		pairs = scratch[:u]
		m.pairs = pairs
	}
	edgesOut = int64(len(pairs))

	// Rank the surviving components from the sorted pairs. idx is written
	// at every source and read at every target; the edge set is symmetric,
	// so every target is a ranked source and idx needs no zero-fill.
	subAdj := ws.Int32(len(pairs))
	m.subAdj = subAdj
	pool.Blocks(procs, len(pairs), 0, m.fnFirst)
	kPrime := int(m.scan32.Exclusive(pool, procs, subAdj, subAdj))
	rep = ws.Int32(kPrime)
	idx := ws.Int32(n)
	subOffs := ws.Int64(kPrime + 1)
	subOffs[kPrime] = int64(len(pairs))
	m.rep, m.idx, m.subOffs = rep, idx, subOffs
	pool.Blocks(procs, len(pairs), 0, m.fnRank)
	subDeg := ws.Int32(kPrime)
	m.subDeg = subDeg
	pool.Blocks(procs, len(pairs), 0, m.fnSubAdj)
	ws.PutInt32(idx)
	ws.PutUint64(pairs)

	*sub = decomp.WGraph{N: kPrime, Offs: subOffs, Adj: subAdj, Deg: subDeg}
	m.w, m.labels, m.pairs, m.rep, m.idx = nil, nil, nil, nil, nil
	m.subOffs, m.subAdj, m.subDeg = nil, nil, nil
	return rep, edgesOut
}

// dedupSample is about how many pairs repeated samples.
const dedupSample = 1024

// repeated reports whether pairs repeat heavily, at most 1/16 of them
// distinct: the case where the hash pre-pass (Shun and Blelloch's
// phase-concurrent table, the paper's dedup) pays for itself by shrinking
// the sort's input (EXPERIMENTS.md "Contraction on both workers" has the
// measurements behind 1/16). It samples by value, not by position: it
// counts the distinct pairs whose hash falls in a fixed bucket of 1 in k,
// with k about len(pairs)/dedupSample, and k times that count estimates
// the level's distinct pairs. Every copy of a value hashes alike, so the
// estimate holds however the copies lie; a strided sample of scattered
// copies would hold two of one value only by chance. It stops as soon as
// the estimate passes 1/16, so a level of distinct pairs is decided early.
// The distinct count uses a linear-probe table on the stack, so the test
// allocates nothing. Pairs never equal hashtable.Empty: each half holds at
// most 31 bits.
func repeated(pairs []uint64) bool {
	n := len(pairs)
	k := max(1, n/dedupSample)
	cut := ^uint64(0) / uint64(k)
	// limit is at most 2*dedupSample/16, as n < dedupSample*(k+1), so the
	// table never gets more than half full.
	limit := n / (16 * k)
	const size = 4 * dedupSample / 16
	var table [size]uint64
	for i := range table {
		table[i] = hashtable.Empty
	}
	distinct := 0
	for _, x := range pairs {
		h := prand.Hash64(x)
		if h > cut {
			continue
		}
		i := h & (size - 1)
		for table[i] != hashtable.Empty && table[i] != x {
			i = (i + 1) & (size - 1)
		}
		if table[i] == hashtable.Empty {
			if distinct++; distinct > limit {
				return false
			}
			table[i] = x
		}
	}
	return n > 0
}
