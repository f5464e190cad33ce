package parconn

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"parconn/internal/graph"
	"parconn/internal/prand"
)

// This file is the concurrency stress suite for Incremental, written to run
// under -race. The structural invariant it pins is snapshot atomicity:
// because each Insert batch is all-or-nothing with respect to validated
// snapshot scans, a reader that chains a whole block of vertices in ONE
// batch must never observe the block half-chained. Writers own disjoint
// vertex stripes so every interleaving of their batches is a valid state.

const (
	stressWriters   = 4
	stressReaders   = 4
	stressBlockSize = 8  // vertices chained per batch
	stressBlocks    = 60 // batches per writer
)

// stressBlockStart returns the first vertex of writer w's block b.
func stressBlockStart(w, b int) int32 {
	return int32((w*stressBlocks + b) * stressBlockSize)
}

// checkStressSnapshot asserts the all-or-nothing block property on one
// snapshot: every block is either fully chained under one label or still
// all singletons. Returns the number of fully-applied blocks so callers can
// also check monotonicity.
func checkStressSnapshot(t *testing.T, labels []int32) int {
	t.Helper()
	applied := 0
	for w := 0; w < stressWriters; w++ {
		for b := 0; b < stressBlocks; b++ {
			start := stressBlockStart(w, b)
			root := labels[start]
			chained := true
			singleton := true
			for i := int32(0); i < stressBlockSize; i++ {
				v := start + i
				if labels[v] != root {
					chained = false
				}
				if labels[v] != v {
					singleton = false
				}
			}
			switch {
			case chained:
				applied++
			case singleton:
				// batch not applied yet
			default:
				t.Errorf("torn snapshot: writer %d block %d is half-chained: %v",
					w, b, labels[start:start+stressBlockSize])
				return applied
			}
		}
	}
	return applied
}

// TestIncrementalStress runs disjoint-stripe writers against snapshot and
// point-query readers and checks that every observed labeling corresponds
// to a set of fully-applied batches, that epochs never regress, and that
// the component count only falls.
func TestIncrementalStress(t *testing.T) {
	n := stressWriters * stressBlocks * stressBlockSize
	inc := NewIncremental(n)

	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(stressWriters + stressReaders)
	stop := make(chan struct{})

	for w := 0; w < stressWriters; w++ {
		go func(w int) {
			defer done.Done()
			start.Wait()
			for b := 0; b < stressBlocks; b++ {
				base := stressBlockStart(w, b)
				batch := make([]Edge, 0, stressBlockSize-1)
				for i := int32(1); i < stressBlockSize; i++ {
					batch = append(batch, Edge{U: base + i - 1, V: base + i})
				}
				merged, err := inc.Insert(batch)
				if err != nil {
					t.Errorf("writer %d block %d: %v", w, b, err)
					return
				}
				if merged != len(batch) {
					t.Errorf("writer %d block %d: merged %d of %d disjoint chain edges", w, b, merged, len(batch))
					return
				}
			}
		}(w)
	}

	for r := 0; r < stressReaders; r++ {
		go func(r int) {
			defer done.Done()
			start.Wait()
			lastEpoch := uint64(0)
			lastComponents := n + 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := inc.Snapshot()
				if snap.Epoch < lastEpoch {
					t.Errorf("reader %d: epoch regressed %d -> %d", r, lastEpoch, snap.Epoch)
					return
				}
				lastEpoch = snap.Epoch
				if snap.Components > lastComponents {
					t.Errorf("reader %d: components grew %d -> %d", r, lastComponents, snap.Components)
					return
				}
				lastComponents = snap.Components
				applied := checkStressSnapshot(t, snap.Labels)
				// The counters must agree with the labeling: each applied
				// block merged blockSize-1 singletons away.
				if want := n - applied*(stressBlockSize-1); snap.Components != want {
					t.Errorf("reader %d: %d applied blocks but %d components (want %d)", r, applied, snap.Components, want)
					return
				}
				// Point queries stay within the stripes: vertices of
				// different writers never connect.
				u := stressBlockStart(0, 0)
				v := stressBlockStart(stressWriters-1, 0)
				if inc.Same(u, v) {
					t.Errorf("reader %d: disjoint stripes connected", r)
					return
				}
			}
		}(r)
	}

	start.Done()
	// Release the readers once every writer batch has landed (or a writer
	// bailed out with an error, which also stops the epoch from advancing).
	for inc.Epoch() < uint64(stressWriters*stressBlocks) && !t.Failed() {
		runtime.Gosched()
	}
	close(stop)
	done.Wait()
	if t.Failed() {
		return
	}

	// Final state: every batch applied exactly once.
	snap := inc.Snapshot()
	if got := checkStressSnapshot(t, snap.Labels); got != stressWriters*stressBlocks {
		t.Fatalf("final snapshot has %d applied blocks, want %d", got, stressWriters*stressBlocks)
	}
	wantComponents := n - stressWriters*stressBlocks*(stressBlockSize-1)
	if snap.Components != wantComponents {
		t.Fatalf("final components = %d, want %d", snap.Components, wantComponents)
	}
	if snap.Epoch != uint64(stressWriters*stressBlocks) {
		t.Fatalf("final epoch = %d, want %d", snap.Epoch, stressWriters*stressBlocks)
	}
}

// TestIncrementalStressSharedEdges hammers the same edge set from every
// writer: merges must be counted exactly once across racing duplicate
// unions (the CAS loser sees the components already joined).
func TestIncrementalStressSharedEdges(t *testing.T) {
	const n = 512
	const writers = 8
	inc := NewIncremental(n)
	// One spanning chain over all of [0, n), inserted whole by every writer.
	chain := make([]Edge, 0, n-1)
	for v := int32(1); v < n; v++ {
		chain = append(chain, Edge{U: v - 1, V: v})
	}
	var wg sync.WaitGroup
	totalMerged := make([]int, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m, err := inc.Insert(chain)
			if err != nil {
				t.Errorf("writer %d: %v", w, err)
				return
			}
			totalMerged[w] = m
		}(w)
	}
	wg.Wait()
	sum := 0
	for _, m := range totalMerged {
		sum += m
	}
	if sum != n-1 {
		t.Fatalf("racing duplicate inserts merged %d total, want exactly %d", sum, n-1)
	}
	if inc.Components() != 1 {
		t.Fatalf("components = %d, want 1", inc.Components())
	}
	snap := inc.Snapshot()
	root := snap.Labels[0]
	for v, l := range snap.Labels {
		if l != root {
			t.Fatalf("vertex %d not in the single component (label %d)", v, l)
		}
	}
}

// TestIncrementalCompactUnderLoad races Compact against live inserts and
// snapshot readers: the swap must never produce a torn snapshot or lose the
// writers' stripes (Compact relabels a graph that already includes them).
func TestIncrementalCompactUnderLoad(t *testing.T) {
	const n = 1024
	// The static graph Compact relabels: chains of 4.
	var edges []Edge
	for v := int32(0); v < n; v++ {
		if v%4 != 0 {
			edges = append(edges, Edge{U: v - 1, V: v})
		}
	}
	g, err := NewGraph(n, edges, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := ConnectedComponents(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncrementalFromLabels(labels)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Re-inserting writers: edges already in g, so Compact never loses them.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				e := edges[(i*7+w*13)%len(edges)]
				if _, err := inc.InsertEdge(e.U, e.V); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	// Snapshot readers: the partition must always be exactly g's, since
	// every insert is a re-insert.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := inc.Snapshot()
				if got := snap.Components; got != NumComponents(labels) {
					t.Errorf("reader %d: components = %d, want %d", r, got, NumComponents(labels))
					return
				}
			}
		}(r)
	}
	for i := 0; i < 8; i++ {
		if err := inc.Compact(g, Options{Seed: uint64(i + 2)}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := VerifyLabeling(g, inc.Labels()); err != nil {
		t.Fatal(err)
	}
}

// compactInserter is a Recorder that calls onStart when a run starts, so a
// test can insert edges while Compact is relabeling.
type compactInserter struct {
	*Trace
	onStart func()
}

func (r compactInserter) RunStart(e RunStart) {
	r.Trace.RunStart(e)
	r.onStart()
}

// TestIncrementalCompactKeepsConcurrentInserts inserts new edges, none of
// them in the graph Compact relabels, while Compact runs: one batch from
// inside the relabeling run itself and more from racing writers. None may
// be lost, so the final partition must equal a from-scratch run over the
// graph plus every inserted edge.
func TestIncrementalCompactKeepsConcurrentInserts(t *testing.T) {
	const n, rounds, writers, batches = 1024, 4, 2, 20
	all := chainEdges(n) // then every edge inserted so far
	g := buildGraph(t, n, all)
	inc := seedIncremental(t, g)
	newEdge := func(i int) Edge { return crossEdge(n, i) }
	next := 0
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		inserted := make([][]Edge, writers+1)
		first := next
		next += (writers + 1) * batches * 4
		rec := compactInserter{Trace: NewTrace(), onStart: func() {
			// One batch certainly lands mid-relabel.
			batch := []Edge{newEdge(first), newEdge(first + 1)}
			if _, err := inc.Insert(batch); err != nil {
				t.Error(err)
			}
			inserted[writers] = batch
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for b := 0; b < batches; b++ {
						base := first + 2 + (w*batches+b)*4
						batch := []Edge{newEdge(base), newEdge(base + 1), newEdge(base + 2)}
						if _, err := inc.Insert(batch); err != nil {
							t.Error(err)
							return
						}
						inserted[w] = append(inserted[w], batch...)
					}
				}(w)
			}
		}}
		if err := inc.Compact(g, Options{Seed: uint64(round + 2), Recorder: rec}); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		for _, es := range inserted {
			all = append(all, es...)
		}
		g = buildGraph(t, n, all)
		checkPartition(t, fmt.Sprintf("round %d", round), inc, g)
	}
}

// TestIncrementalOverlappingCompacts starts a second Compact while the
// first relabels, and inserts new edges once both are relabeling. Neither
// swap may drop them, whichever comes last.
func TestIncrementalOverlappingCompacts(t *testing.T) {
	const n = 1024
	g := buildGraph(t, n, chainEdges(n))
	inc := seedIncremental(t, g)
	batch := []Edge{crossEdge(n, 0), crossEdge(n, 1), crossEdge(n, 2)}

	var second sync.WaitGroup
	var secondErr error
	secondStarted := make(chan struct{})
	first := compactInserter{Trace: NewTrace(), onStart: func() {
		second.Add(1)
		go func() {
			defer second.Done()
			rec := compactInserter{Trace: NewTrace(), onStart: func() { close(secondStarted) }}
			secondErr = inc.Compact(g, Options{Seed: 3, Recorder: rec})
		}()
		select {
		case <-secondStarted:
		case <-time.After(10 * time.Second):
			t.Error("the second Compact did not start relabeling while the first relabeled")
			return
		}
		if _, err := inc.Insert(batch); err != nil {
			t.Error(err)
		}
	}}
	if err := inc.Compact(g, Options{Seed: 2, Recorder: first}); err != nil {
		t.Fatal(err)
	}
	second.Wait()
	if secondErr != nil {
		t.Fatal(secondErr)
	}
	checkPartition(t, "after both Compacts", inc, buildGraph(t, n, append(chainEdges(n), batch...)))
}

// chainEdges returns the edges of n/4 disjoint paths of 4 vertices.
func chainEdges(n int32) []Edge {
	var edges []Edge
	for v := int32(0); v < n; v++ {
		if v%4 != 0 {
			edges = append(edges, Edge{U: v - 1, V: v})
		}
	}
	return edges
}

// crossEdge returns the i'th pseudo-random edge from the start of one
// path of chainEdges(n) to the end of another, so never one of its edges.
func crossEdge(n int32, i int) Edge {
	u := int32(prand.Hash64(uint64(i)) % uint64(n/4) * 4)
	v := int32(prand.Hash64(uint64(i)+1<<32) % uint64(n/4) * 4)
	return Edge{U: u, V: v + 3}
}

func buildGraph(t *testing.T, n int32, edges []Edge) *Graph {
	t.Helper()
	g, err := NewGraph(int(n), edges, BuildOptions{KeepDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// seedIncremental returns an Incremental seeded from g's labeling.
func seedIncremental(t *testing.T, g *Graph) *Incremental {
	t.Helper()
	labels, err := ConnectedComponents(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncrementalFromLabels(labels)
	if err != nil {
		t.Fatal(err)
	}
	return inc
}

// checkPartition fails unless inc's snapshot has g's partition and
// component count, as a from-scratch run finds them.
func checkPartition(t *testing.T, when string, inc *Incremental, g *Graph) {
	t.Helper()
	want, err := ConnectedComponents(g, Options{Algorithm: SerialSF})
	if err != nil {
		t.Fatal(err)
	}
	snap := inc.Snapshot()
	if !graph.SamePartition(want, snap.Labels) {
		t.Fatalf("%s: partition differs from a from-scratch run (%d components, want %d)",
			when, snap.Components, NumComponents(want))
	}
	if snap.Components != NumComponents(want) {
		t.Fatalf("%s: snapshot counts %d components, want %d", when, snap.Components, NumComponents(want))
	}
}
