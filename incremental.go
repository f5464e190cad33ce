package parconn

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"parconn/internal/parallel"
	"parconn/internal/unionfind"
)

// Incremental is a concurrent, batched edge-insertion layer over a
// connectivity labeling: seed it from a from-scratch ConnectedComponents
// answer array (or empty, with NewIncremental), then Insert edge batches as
// the graph grows. Any number of goroutines may Insert, query (Find, Same,
// Components), and take Snapshots concurrently.
//
// Internally it is the library's lock-free CAS union-find
// (internal/unionfind.Concurrent, the Liu–Tarjan concurrent union-find with
// path compression, arXiv:1812.06177) plus an epoch/generation scheme for
// reads: point queries are answered live and linearizably from the CAS
// structure, while Labels/Snapshot materialize a full labeling that is
// guaranteed torn-free — it reflects exactly the batches applied up to some
// generation, never a half-applied batch. Writers are wait-free with
// respect to snapshots in the common case (snapshots validate an optimistic
// scan against the generation counters and retry); under sustained write
// pressure the snapshot path falls back to briefly excluding writers so it
// always terminates.
//
// Deletions are out of scope for the incremental path: handle them by
// rebuilding the graph without the deleted edges and calling Compact, which
// re-seeds the structure from a fresh from-scratch labeling (reusing the
// full parallel decomp-CC machinery) and collapses every union-find path
// built up by inserts.
//
// For a static graph, ConnectedComponents is faster; Incremental is for
// evolving graphs where recomputing from scratch on every mutation is too
// expensive.
type Incremental struct {
	n  int
	uf atomic.Pointer[unionfind.Concurrent] // swapped wholesale by Compact

	// Generation scheme: writers holds the number of Insert calls currently
	// applying unions; applied counts fully-applied batches (the epoch). A
	// labeling scan is consistent iff writers was zero and applied was
	// unchanged across the whole scan — see Snapshot.
	writers atomic.Int64
	applied atomic.Uint64

	components atomic.Int64 // live component count; each merge decrements
	edges      atomic.Int64 // edges accepted by Insert since seeding (self-loops and duplicates included)

	// mu serializes the stop-the-world paths: Insert holds it shared, so
	// Compact and the snapshot fallback can exclude writers by holding it
	// exclusively. The optimistic snapshot path never touches it.
	mu   sync.RWMutex
	snap atomic.Pointer[IncrementalSnapshot] // latest published snapshot (epoch-monotone)

	// logs holds one log per Compact in progress: Insert appends each batch
	// to all of them, so every Compact's swap can replay the batches its
	// relabeling missed. Changed under mu held exclusively, read under mu
	// held shared.
	logs []*insertLog
}

// insertLog collects the batches Insert applies while one Compact relabels.
type insertLog struct {
	mu    sync.Mutex
	edges []Edge
}

// IncrementalSnapshot is one consistent view of an Incremental: a canonical
// labeling together with the generation it reflects. The Labels slice is
// shared by every caller that observes the same epoch and must be treated
// as read-only.
type IncrementalSnapshot struct {
	// Labels is a canonical connected-components labeling
	// (Labels[Labels[v]] == Labels[v]) of the graph as of Epoch.
	Labels []int32
	// Epoch is the insert-batch generation the labeling reflects; it
	// increases by one per applied batch (and per Compact).
	Epoch uint64
	// Components is the component count of Labels.
	Components int
	// Edges is the number of edges accepted by Insert as of Epoch (it does
	// not deduplicate re-inserted edges).
	Edges int64
}

// snapshotRetries bounds the optimistic scan attempts before Snapshot
// escalates to excluding writers; each failed attempt means a batch landed
// mid-scan, so a couple of retries absorb bursts without ever spinning
// unboundedly against a saturating writer.
const snapshotRetries = 3

// snapshotScanGrain is the per-block work of the parallel labeling scan;
// Find is a handful of atomic loads, so blocks are kept large.
const snapshotScanGrain = 1 << 13

// NewIncremental returns an Incremental over n isolated vertices.
func NewIncremental(n int) *Incremental {
	if n < 0 {
		n = 0
	}
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i)
	}
	inc, err := NewIncrementalFromLabels(labels)
	if err != nil {
		panic(err) // identity labeling is always canonical
	}
	return inc
}

// NewIncrementalFromLabels returns an Incremental seeded from a canonical
// connectivity labeling — typically the answer array of a from-scratch
// ConnectedComponents run, which makes every component a depth-one
// union-find tree rooted at its canonical vertex. The labels slice is not
// retained for writing: it becomes the epoch-0 snapshot, so callers must
// not mutate it afterwards.
func NewIncrementalFromLabels(labels []int32) (*Incremental, error) {
	uf, err := unionfind.NewConcurrentFromLabels(labels)
	if err != nil {
		return nil, err
	}
	inc := &Incremental{n: len(labels)}
	inc.uf.Store(uf)
	inc.components.Store(int64(NumComponents(labels)))
	inc.snap.Store(&IncrementalSnapshot{Labels: labels, Epoch: 0, Components: NumComponents(labels)})
	return inc, nil
}

// Vertices returns the (fixed) vertex count.
func (inc *Incremental) Vertices() int { return inc.n }

// Epoch returns the current insert-batch generation: the number of batches
// fully applied (plus one per Compact).
func (inc *Incremental) Epoch() uint64 { return inc.applied.Load() }

// Components returns the live component count. It is exact between batches
// and, during concurrent inserts, reflects a prefix of each in-flight
// batch's merges; it never increases except through Compact.
func (inc *Incremental) Components() int { return int(inc.components.Load()) }

// Edges returns the number of edges accepted by Insert since seeding (or
// since the last Compact). Duplicates and self-loops count: this is an
// ingestion counter, not the graph's deduplicated edge count.
func (inc *Incremental) Edges() int64 { return inc.edges.Load() }

// Insert applies one batch of undirected edges, returning how many of them
// merged two previously-distinct components. The batch is validated up
// front and rejected whole if any endpoint is outside [0, Vertices()), so a
// batch is all-or-nothing; self-loops and duplicate edges are accepted
// no-ops. Any number of goroutines may Insert concurrently — edges within
// and across batches are applied with lock-free CAS unions.
func (inc *Incremental) Insert(edges []Edge) (merged int, err error) {
	n := int32(inc.n) //parconn:allow conversioncheck NewConcurrentFromLabels bounds n at 2^31-1 in every constructor path
	for i, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return 0, fmt.Errorf("parconn: Insert edge %d (%d,%d) outside [0, %d)", i, e.U, e.V, n)
		}
	}
	if len(edges) == 0 {
		return 0, nil
	}
	inc.mu.RLock()
	inc.writers.Add(1)
	uf := inc.uf.Load()
	for _, e := range edges {
		if e.U != e.V && uf.Union(e.U, e.V) {
			merged++
		}
	}
	// Counter updates land inside the writers>0 window so a validated
	// snapshot scan always sees labels and counters from the same
	// generation.
	inc.components.Add(-int64(merged))
	inc.edges.Add(int64(len(edges)))
	// Logged under the shared lock, so a Compact's swap (which holds it
	// exclusively) sees every batch that missed its relabeling.
	for _, log := range inc.logs {
		log.mu.Lock()
		log.edges = append(log.edges, edges...)
		log.mu.Unlock()
	}
	inc.applied.Add(1)
	inc.writers.Add(-1)
	inc.mu.RUnlock()
	return merged, nil
}

// InsertEdge is Insert for a single edge.
func (inc *Incremental) InsertEdge(u, v int32) (merged bool, err error) {
	m, err := inc.Insert([]Edge{{U: u, V: v}})
	return m == 1, err
}

// Find returns the current canonical vertex of v's component, answered live
// from the CAS union-find (linearizable with concurrent inserts). Canonical
// vertices may change as components merge.
func (inc *Incremental) Find(v int32) int32 {
	if v < 0 || int(v) >= inc.n {
		return -1
	}
	return inc.uf.Load().Find(v)
}

// Same reports whether u and v are currently in the same component,
// answered live. Under concurrent inserts the answer reflects some
// linearization of the unions.
func (inc *Incremental) Same(u, v int32) bool {
	if u < 0 || int(u) >= inc.n || v < 0 || int(v) >= inc.n {
		return false
	}
	uf := inc.uf.Load()
	return uf.Find(u) == uf.Find(v)
}

// Labels returns a consistent canonical labeling: the Labels of Snapshot.
// The slice is shared with other observers of the same epoch — treat it as
// read-only.
func (inc *Incremental) Labels() []int32 { return inc.Snapshot().Labels }

// Snapshot materializes a consistent view of the current components. The
// returned labeling reflects exactly the batches applied up to the
// snapshot's Epoch — never a torn, half-applied batch — and epochs of
// published snapshots only move forward.
//
// The fast path reuses the last published snapshot when no batch has landed
// since. Otherwise the scan is optimistic: read the generation, scan every
// vertex's root, and validate that no writer was active and no batch
// completed in between (a seqlock over the batch counters). After
// snapshotRetries failed validations it escalates to holding the write lock
// for the duration of one scan, which excludes writers and always succeeds.
func (inc *Incremental) Snapshot() *IncrementalSnapshot {
	if s := inc.snap.Load(); s != nil && inc.writers.Load() == 0 && s.Epoch == inc.applied.Load() {
		return s
	}
	for attempt := 0; attempt < snapshotRetries; attempt++ {
		e1 := inc.applied.Load()
		if inc.writers.Load() != 0 {
			runtime.Gosched()
			continue
		}
		labels := inc.scan()
		comps := inc.components.Load()
		edges := inc.edges.Load()
		if inc.writers.Load() == 0 && inc.applied.Load() == e1 {
			s := &IncrementalSnapshot{Labels: labels, Epoch: e1, Components: int(comps), Edges: edges}
			inc.publish(s)
			return s
		}
	}
	// Writers keep landing batches mid-scan: exclude them for one scan.
	inc.mu.Lock()
	defer inc.mu.Unlock()
	s := &IncrementalSnapshot{
		Labels:     inc.scan(),
		Epoch:      inc.applied.Load(),
		Components: int(inc.components.Load()),
		Edges:      inc.edges.Load(),
	}
	inc.publish(s)
	return s
}

// scan materializes the current labeling from the union-find, in parallel
// through the shared worker pool for large vertex sets. Find performs
// best-effort path halving, so scans also compact the structure.
func (inc *Incremental) scan() []int32 {
	uf := inc.uf.Load()
	labels := make([]int32, inc.n)
	parallel.Default().ForGrain(0, inc.n, snapshotScanGrain, func(i int) {
		labels[i] = uf.Find(int32(i))
	})
	return labels
}

// publish installs s as the cached snapshot unless a newer epoch already
// is: concurrent snapshot scans may complete out of order, and readers of
// the cache must never observe the labeling move backwards.
func (inc *Incremental) publish(s *IncrementalSnapshot) {
	for {
		old := inc.snap.Load()
		if old != nil && old.Epoch >= s.Epoch {
			return
		}
		if inc.snap.CompareAndSwap(old, s) {
			return
		}
	}
}

// Compact is the periodic full-recompute hook: it relabels g from scratch
// with ConnectedComponents (decomp-arb-hybrid-CC by default, through the
// existing parallel worker pool) and re-seeds the structure from the fresh
// answer array, collapsing every union-find path accumulated by inserts.
// This is also how deletions are handled — rebuild g without the deleted
// edges and Compact. g must cover the same vertex set and every edge
// inserted before the call. Concurrent queries keep answering throughout
// (against the old structure until the swap); concurrent Inserts are
// excluded only for the brief swap itself, not for the relabeling run.
// Batches inserted from the start of the call are logged and replayed onto
// the fresh structure during the swap, so none is lost; they are what
// Edges counts afterwards. Compact calls may overlap: each logs and
// replays on its own, and each swap leaves every batch in place.
func (inc *Incremental) Compact(g *Graph, opt Options) error {
	if g.NumVertices() != inc.n {
		return fmt.Errorf("parconn: Compact graph has %d vertices, Incremental has %d", g.NumVertices(), inc.n)
	}
	// Installing the log under the write lock waits out in-flight batches:
	// every later batch is logged.
	log := &insertLog{}
	inc.mu.Lock()
	inc.logs = append(inc.logs, log)
	inc.mu.Unlock()

	labels, err := ConnectedComponents(g, opt)
	var uf *unionfind.Concurrent
	if err == nil {
		// Its error is unreachable: ConnectedComponents returns canonical
		// labelings.
		uf, err = unionfind.NewConcurrentFromLabels(labels)
	}
	comps := NumComponents(labels)
	inc.mu.Lock()
	defer inc.mu.Unlock()
	inc.logs = slices.DeleteFunc(inc.logs, func(l *insertLog) bool { return l == log })
	if err != nil {
		return err
	}
	merged := 0
	for _, e := range log.edges {
		if e.U != e.V && uf.Union(e.U, e.V) {
			merged++
		}
	}
	// Flagging a writer keeps any in-flight optimistic scan from validating
	// against a half-swapped state.
	inc.writers.Add(1)
	inc.uf.Store(uf)
	inc.components.Store(int64(comps - merged))
	inc.edges.Store(int64(len(log.edges)))
	epoch := inc.applied.Add(1)
	inc.writers.Add(-1)
	if merged > 0 {
		labels = inc.scan()
	}
	inc.snap.Store(&IncrementalSnapshot{Labels: labels, Epoch: epoch, Components: comps - merged, Edges: int64(len(log.edges))})
	return nil
}
