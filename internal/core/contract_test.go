package core

import (
	"slices"
	"testing"

	"parconn/internal/decomp"
	"parconn/internal/graph"
	"parconn/internal/parallel"
	"parconn/internal/workspace"
)

// contracted is one contraction step's output.
type contracted struct {
	sub      *decomp.WGraph
	rep      []int32
	edgesOut int64
}

// newTestMachine returns a pooled machine aimed at the default pool and
// arena; release it with putTestMachine.
func newTestMachine(opt Options) *ccMachine {
	m := machinePool.Get().(*ccMachine)
	m.opt = opt
	m.procs = parallel.Procs(opt.Procs)
	m.pool = parallel.Default()
	m.ws = workspace.Default()
	return m
}

func putTestMachine(m *ccMachine) {
	m.reset()
	machinePool.Put(m)
}

// contract runs one contraction step of w's decomposition res through a
// fresh ccMachine. A Result literal of labels alone drops no ball.
func contract(w *decomp.WGraph, res decomp.Result, opt Options) contracted {
	m := newTestMachine(opt)
	defer putTestMachine(m)
	c := contracted{sub: &decomp.WGraph{}}
	c.rep, c.edgesOut = m.contract(m.procs, w, c.sub, res)
	return c
}

// sameContraction reports whether a and b are the same contracted graph
// with the same representatives.
func sameContraction(a, b contracted) bool {
	n := a.sub.N
	return a.edgesOut == b.edgesOut && n == b.sub.N &&
		slices.Equal(a.rep, b.rep) &&
		slices.Equal(a.sub.Offs[:n+1], b.sub.Offs[:n+1]) &&
		slices.Equal(a.sub.Deg[:n], b.sub.Deg[:n]) &&
		slices.Equal(a.sub.Adj[:a.edgesOut], b.sub.Adj[:b.edgesOut])
}

// relabelUp runs RELABELUP on labels in place through a fresh ccMachine.
func relabelUp(labels, rep, subLabels []int32, procs int) {
	m := newTestMachine(Options{Procs: procs})
	defer putTestMachine(m)
	m.relabelUp(m.procs, labels, rep, subLabels)
}

// buildWGraph constructs a working graph directly from directed adjacency
// lists (already decomposed state: targets are component-center ids).
func buildWGraph(adj [][]int32) *decomp.WGraph {
	n := len(adj)
	w := &decomp.WGraph{N: n, Offs: make([]int64, n+1), Deg: make([]int32, n)}
	for v, list := range adj {
		w.Offs[v+1] = w.Offs[v] + int64(len(list))
		w.Deg[v] = int32(len(list))
		w.Adj = append(w.Adj, list...)
	}
	return w
}

// TestContractManual checks CONTRACT on a hand-built post-decomposition
// state: 6 vertices in 3 components with centers 0, 2, 5. Components 0 and
// 2 exchange (duplicated) edges; component 5 has no surviving edges and
// must be dropped as a singleton with its label preserved by RELABELUP.
func TestContractManual(t *testing.T) {
	// Partitions: {0,1} center 0; {2,3} center 2; {4,5} center 5.
	labels := []int32{0, 0, 2, 2, 5, 5}
	// Surviving inter-component directed edges (targets = center ids):
	//  0->2 (x2, duplicate), 1->2; reverse: 2->0 x2, 3->0.
	//  Component 5 has no surviving edges.
	w := buildWGraph([][]int32{
		{2, 2}, // vertex 0 keeps two parallel edges to component 2
		{2},    // vertex 1 keeps one
		{0, 0}, // vertex 2's reverses
		{0},    // vertex 3's reverse
		{},     // vertex 4
		{},     // vertex 5 (center, no edges)
	})
	for _, dedup := range dedups {
		c := contract(w, decomp.Result{Labels: labels}, Options{Procs: 1, Dedup: dedup})
		sub := c.sub
		// Component 5 is a singleton: dropped.
		if sub.N != 2 {
			t.Fatalf("%v: contracted n=%d want 2", dedup, sub.N)
		}
		// Dedup leaves exactly one edge each way; without it all three stay.
		perSide := int32(1)
		if dedup == DedupNone {
			perSide = 3
		}
		if c.edgesOut != 2*int64(perSide) {
			t.Fatalf("%v: edgesOut=%d want %d", dedup, c.edgesOut, 2*perSide)
		}
		if sub.Deg[0] != perSide || sub.Deg[1] != perSide {
			t.Fatalf("%v: sub degrees %v", dedup, sub.Deg)
		}
		for v, other := range []int32{1, 0} {
			for _, u := range sub.Adj[sub.Offs[v]:sub.Offs[v+1]] {
				if u != other {
					t.Fatalf("%v: contracted vertex %d lists %d, want %d", dedup, v, u, other)
				}
			}
		}
		// Representatives map back to the centers, in center order.
		if c.rep[0] != 0 || c.rep[1] != 2 {
			t.Fatalf("%v: rep=%v", dedup, c.rep)
		}
		// RELABELUP with either contracted vertex as the root relabels both
		// surviving components and leaves the dropped singleton alone.
		for root, want := range [][]int32{{0, 0, 0, 0, 5, 5}, {2, 2, 2, 2, 5, 5}} {
			got := slices.Clone(labels)
			relabelUp(got, c.rep, []int32{int32(root), int32(root)}, 1)
			if !slices.Equal(got, want) {
				t.Fatalf("%v: RELABELUP with root %d gave %v, want %v", dedup, root, got, want)
			}
		}
	}
}

func TestContractDedupModesCount(t *testing.T) {
	labels := []int32{0, 0, 2, 2}
	w := buildWGraph([][]int32{
		{2, 2, 2}, // three parallel edges comp0 -> comp2
		{},
		{0, 0, 0},
		{},
	})
	for _, mode := range dedups {
		want := int64(2)
		if mode == DedupNone {
			want = 6
		}
		if c := contract(w, decomp.Result{Labels: labels}, Options{Procs: 1, Dedup: mode}); c.edgesOut != want {
			t.Fatalf("%v: edgesOut=%d want %d", mode, c.edgesOut, want)
		}
	}
}

// TestContractRealInputs decomposes real inputs with Arb and with the
// hybrid at a dense threshold low enough to drop a ball's lists, and
// contracts the resulting state in every dedup mode with one worker (as on
// a tiny level) and with two, so the sections fork; both must build the
// same graph, and it must be the graph contracted from the same labels
// with every list kept (the dropped ball's edges rebuilt from the other
// side). RELABELUP of the contracted graph's own labeling must then give
// the input's exact partition.
func TestContractRealInputs(t *testing.T) {
	inputs := map[string]*graph.Graph{
		"line":     graph.Line(30_000, 3),
		"rmat-dup": graph.RMat(12, graph.RMatOptions{EdgeFactor: 8, Seed: 4, KeepDuplicates: true}),
		"random":   graph.Random(20_000, 4, 5),
	}
	for name, g := range inputs {
		for _, variant := range []decomp.Variant{decomp.Arb, decomp.ArbHybrid} {
			for _, dedup := range dedups {
				w := decomp.NewWGraph(parallel.Default(), 2, g)
				res, err := decomp.Decompose(w, variant, decomp.Options{Beta: 0.2, Seed: 3, Procs: 2, DenseFrac: 0.01})
				if err != nil {
					t.Fatal(err)
				}
				if res.EdgesOut == 0 {
					t.Fatalf("%s: decomposition cut no edges", name)
				}
				// Arb keeps every list; the hybrid goes dense on rMat and
				// random at this threshold (a line may or may not).
				dropped := res.Dropped() != decomp.NoBall
				if variant == decomp.Arb && dropped || variant == decomp.ArbHybrid && name != "line" && !dropped {
					t.Fatalf("%s/%v: dropped ball %d", name, variant, res.Dropped())
				}
				c := contract(w, res, Options{Procs: 2, Dedup: dedup})
				if !sameContraction(c, contract(w, res, Options{Procs: 1, Dedup: dedup})) {
					t.Fatalf("%s/%v/%v: contraction differs between 1 and 2 workers", name, variant, dedup)
				}
				if !sameContraction(c, contract(twoSided(g, res.Labels), decomp.Result{Labels: res.Labels}, Options{Procs: 1, Dedup: dedup})) {
					t.Fatalf("%s/%v/%v: contraction differs from the two-sided one", name, variant, dedup)
				}
				if c.sub.N == 0 || c.sub.N > res.NumCenters {
					t.Fatalf("%s/%v: contracted n=%d from %d centers", name, dedup, c.sub.N, res.NumCenters)
				}
				subG := &graph.Graph{N: c.sub.N, Offs: c.sub.Offs[:c.sub.N+1], Adj: c.sub.Adj[:c.edgesOut]}
				subLabels, err := CC(subG, Options{Variant: decomp.Arb, Seed: 4, Procs: 2})
				if err != nil {
					t.Fatal(err)
				}
				labels := slices.Clone(res.Labels)
				relabelUp(labels, c.rep, subLabels, 2)
				checkLabels(t, g, labels)
			}
		}
	}
}

// twoSided builds the working graph a decomposition into labels leaves
// when it keeps every list: each vertex holds its inter-component edges,
// targets relabeled.
func twoSided(g *graph.Graph, labels []int32) *decomp.WGraph {
	w := &decomp.WGraph{N: g.N, Offs: g.Offs, Adj: make([]int32, len(g.Adj)), Deg: make([]int32, g.N)}
	for v := range g.N {
		k := g.Offs[v]
		for _, u := range g.Neighbors(int32(v)) {
			if labels[u] != labels[v] {
				w.Adj[k] = labels[u]
				k++
			}
		}
		w.Deg[v] = int32(k - g.Offs[v])
	}
	return w
}

func TestCCMinDeterministicAcrossProcsFullStack(t *testing.T) {
	// decomp-min-CC is deterministic end to end: identical labels (not
	// just identical partitions) for a fixed seed at any worker count.
	g := graph.RMat(10, graph.RMatOptions{EdgeFactor: 6, Seed: 5})
	var want []int32
	for _, procs := range []int{1, 3, 7} {
		labels, err := CC(g, Options{Variant: decomp.Min, Seed: 13, Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = labels
			continue
		}
		for v := range want {
			if labels[v] != want[v] {
				t.Fatalf("procs=%d: labels[%d] differs", procs, v)
			}
		}
	}
}

// TestRepeatedSamplesByValue checks the hash pre-pass's duplicate test on
// levels whose copies of a value lie far apart, d positions, as a
// decomposition's scattered cut edges do. A strided sample of 1024 of the
// 200,000 pairs over 5,000 values sees almost no value twice; the value
// sample must find them 40 times repeated.
func TestRepeatedSamplesByValue(t *testing.T) {
	level := func(n, d int) []uint64 {
		pairs := make([]uint64, n)
		for i := range pairs {
			pairs[i] = uint64(i*7919%d+1) << 20
		}
		return pairs
	}
	cases := []struct {
		n, d int
		want bool
	}{
		{0, 1, false},
		{10, 1, false},
		{500, 500, false},
		{500, 100, false},
		{500, 20, true},
		{200_000, 200_000, false},
		{200_000, 20_000, false},
		{200_000, 5_000, true},
		{100_000, 6, true},
	}
	for _, c := range cases {
		if got := repeated(level(c.n, c.d)); got != c.want {
			t.Errorf("%d pairs over %d values: repeated = %v, want %v", c.n, c.d, got, c.want)
		}
	}
}
