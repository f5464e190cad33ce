package decomp

import (
	"maps"
	"testing"
	"time"

	"parconn/internal/graph"
	"parconn/internal/obs"
	"parconn/internal/parallel"
	"parconn/internal/workspace"
)

var variants = []Variant{Min, Arb, ArbHybrid}

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"random":    graph.Random(2000, 5, 1),
		"rmat":      graph.RMat(11, graph.RMatOptions{EdgeFactor: 5, Seed: 2}),
		"grid3d":    graph.Grid3D(10, 3),
		"line":      graph.Line(3000, 4),
		"star":      graph.Star(500),
		"isolated":  graph.FromEdges(50, nil, graph.BuildOptions{}),
		"empty":     graph.FromEdges(0, nil, graph.BuildOptions{}),
		"single":    graph.FromEdges(1, nil, graph.BuildOptions{}),
		"two-comps": graph.Components(graph.Line(100, 5), graph.Grid3D(5, 6)),
		"dense":     graph.RMat(8, graph.RMatOptions{EdgeFactor: 50, Seed: 7}),
	}
}

// checkDecomposition verifies the full contract of a decomposition run:
// every vertex is labeled with a center id, partitions are internally
// connected with radius bounded by the round count, and the working graph
// retains the inter-partition edges, relabeled to component ids, one-sided
// for the dropped ball (Result.Dropped).
func checkDecomposition(t *testing.T, g0 *graph.Graph, w *WGraph, res Result, rounds []obs.Round) {
	t.Helper()
	n := g0.N
	labels := res.Labels
	if len(labels) != n {
		t.Fatalf("labels length %d, want %d", len(labels), n)
	}
	if got := countVisited(labels); got != n {
		t.Fatalf("%d vertices left unvisited", n-got)
	}
	centers := map[int32]bool{}
	for v := 0; v < n; v++ {
		l := labels[v]
		if l < 0 || int(l) >= n {
			t.Fatalf("label out of range: labels[%d]=%d", v, l)
		}
		if labels[l] != l {
			t.Fatalf("label %d of vertex %d is not a center (labels[%d]=%d)", l, v, l, labels[l])
		}
		centers[l] = true
	}
	if len(centers) != res.NumCenters {
		t.Fatalf("NumCenters=%d but %d distinct centers", res.NumCenters, len(centers))
	}

	// Partition connectivity and radius: BFS from each center restricted to
	// its partition must reach all members within res.Rounds levels.
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	reached := 0
	var queue []int32
	for c := range centers {
		dist[c] = 0
		reached++
		queue = append(queue[:0], c)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, u := range g0.Neighbors(v) {
				if labels[u] == labels[c] && dist[u] == -1 {
					dist[u] = dist[v] + 1
					if int(dist[u]) > res.Rounds {
						t.Fatalf("vertex %d at depth %d from center %d exceeds %d rounds", u, dist[u], c, res.Rounds)
					}
					reached++
					queue = append(queue, u)
				}
			}
		}
	}
	if reached != n {
		t.Fatalf("partitions not internally connected: reached %d/%d", reached, n)
	}

	// The working graph must hold the inter-partition directed edges of the
	// original graph, targets relabeled to component ids: every one, except
	// that the lists of the dropped ball L are empty and each of its edges
	// is held once, on the other side, with target L. As a multiset, the
	// kept (label(v), target) entries plus one (L, label(v)) per entry that
	// targets L must be the input's (label(u), label(w)) cut pairs.
	drop := res.Dropped()
	if drop != NoBall && (drop < 0 || int(drop) >= n || labels[drop] != drop) {
		t.Fatalf("dropped ball %d is not a center", drop)
	}
	want := map[[2]int32]int{}
	var wantCut int64
	for u := 0; u < n; u++ {
		for _, x := range g0.Neighbors(int32(u)) {
			if lu, lx := labels[u], labels[x]; lu != lx {
				want[[2]int32{lu, lx}]++
				wantCut++
			}
		}
	}
	got := map[[2]int32]int{}
	var gotCut int64
	for v := 0; v < n; v++ {
		start := w.Offs[v]
		if w.Deg[v] < 0 {
			t.Fatalf("Deg[%d]=%d is negative: a fully-classified mark was left behind", v, w.Deg[v])
		}
		if int64(w.Deg[v]) > w.Offs[v+1]-start {
			t.Fatalf("Deg[%d]=%d exceeds segment", v, w.Deg[v])
		}
		if labels[v] == drop && w.Deg[v] != 0 {
			t.Fatalf("vertex %d of the dropped ball %d keeps %d edges", v, drop, w.Deg[v])
		}
		for i := int64(0); i < int64(w.Deg[v]); i++ {
			e := w.Adj[start+i]
			if e < 0 || int(e) >= n || labels[e] != e || !centers[e] {
				t.Fatalf("kept edge of %d has target %d that is not a center", v, e)
			}
			if e == labels[v] {
				t.Fatalf("kept edge of %d points to its own component %d", v, e)
			}
			got[[2]int32{labels[v], e}]++
			gotCut++
			if e == drop {
				got[[2]int32{drop, labels[v]}]++
				gotCut++
			}
		}
	}
	if gotCut != wantCut {
		t.Fatalf("kept edges stand for %d inter edges, induced cut is %d", gotCut, wantCut)
	}
	if !maps.Equal(got, want) {
		t.Fatalf("kept edges are not the cut pairs as a multiset (dropped ball %d)", drop)
	}
	if res.EdgesOut != gotCut {
		t.Fatalf("Result.EdgesOut=%d, but the kept edges stand for %d", res.EdgesOut, gotCut)
	}

	// Round stats, when collected, must be internally consistent.
	if rounds != nil {
		totalCenters := 0
		for _, r := range rounds {
			totalCenters += r.NewCenters
			if r.Frontier <= 0 {
				t.Fatalf("round %d has empty frontier", r.Round)
			}
		}
		if totalCenters != res.NumCenters {
			t.Fatalf("round stats count %d centers, result says %d", totalCenters, res.NumCenters)
		}
		if len(rounds) != res.Rounds {
			t.Fatalf("len(rounds)=%d, res.Rounds=%d", len(rounds), res.Rounds)
		}
	}
}

func TestDecomposeAllVariantsAllGraphs(t *testing.T) {
	for name, g := range testGraphs() {
		for _, variant := range variants {
			for _, beta := range []float64{0.05, 0.2, 0.5} {
				tr := obs.NewTrace()
				w := NewWGraph(parallel.Default(), 0, g)
				res, err := Decompose(w, variant, Options{Beta: beta, Seed: 42, Recorder: tr})
				if err != nil {
					t.Fatalf("%s/%v/beta=%v: %v", name, variant, beta, err)
				}
				checkDecomposition(t, g, w, res, tr.Rounds())
			}
		}
	}
}

func TestDecomposeProcsInvariantContract(t *testing.T) {
	// The decomposition contract must hold at every worker count.
	g := graph.RMat(10, graph.RMatOptions{EdgeFactor: 5, Seed: 9})
	for _, procs := range []int{1, 2, 8} {
		for _, variant := range variants {
			w := NewWGraph(parallel.Default(), procs, g)
			res, err := Decompose(w, variant, Options{Beta: 0.2, Seed: 1, Procs: procs})
			if err != nil {
				t.Fatal(err)
			}
			checkDecomposition(t, g, w, res, nil)
		}
	}
}

func TestDecompMinDeterministicAcrossProcs(t *testing.T) {
	// Decomp-Min's writeMin winner is the (shift, center) minimum — fully
	// deterministic for a fixed seed regardless of scheduling.
	g := graph.RMat(10, graph.RMatOptions{EdgeFactor: 5, Seed: 3})
	var want []int32
	for _, procs := range []int{1, 3, 8} {
		w := NewWGraph(parallel.Default(), procs, g)
		res, err := Decompose(w, Min, Options{Beta: 0.15, Seed: 5, Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res.Labels
			continue
		}
		for v := range want {
			if res.Labels[v] != want[v] {
				t.Fatalf("procs=%d: labels[%d]=%d, want %d", procs, v, res.Labels[v], want[v])
			}
		}
	}
}

func TestDecomposeBetaEffect(t *testing.T) {
	// Larger beta means more centers and fewer rounds; smaller beta means
	// fewer, larger balls. Check the monotone trend on a grid.
	g := graph.Grid3D(12, 8)
	w1 := NewWGraph(parallel.Default(), 0, g)
	small, err := Decompose(w1, Arb, Options{Beta: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w2 := NewWGraph(parallel.Default(), 0, g)
	large, err := Decompose(w2, Arb, Options{Beta: 0.8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if small.NumCenters >= large.NumCenters {
		t.Fatalf("centers: beta=0.05 gives %d, beta=0.8 gives %d; want increase", small.NumCenters, large.NumCenters)
	}
	if small.Rounds <= large.Rounds {
		t.Fatalf("rounds: beta=0.05 gives %d, beta=0.8 gives %d; want decrease", small.Rounds, large.Rounds)
	}
}

func TestDecomposeCutFractionScalesWithBeta(t *testing.T) {
	// Theorem 2: expected inter-partition edges <= 2*beta*m. The bound is
	// on the expectation over the shift draws; it only concentrates when
	// partition boundaries are many independent local events, so measure on
	// the line and the 3D torus (on expander-like graphs a single top-two
	// shift tie cuts a Theta(m) Voronoi boundary, making small-sample means
	// meaningless). Mean over several seeds, 1.5x slack on 2*beta.
	for name, g := range map[string]*graph.Graph{
		"line":   graph.Line(20000, 2),
		"grid3d": graph.Grid3D(20, 2),
	} {
		m := float64(g.NumDirected())
		for _, beta := range []float64{0.05, 0.1, 0.2} {
			var sum float64
			const trials = 5
			for seed := uint64(0); seed < trials; seed++ {
				w := NewWGraph(parallel.Default(), 0, g)
				if _, err := Decompose(w, Arb, Options{Beta: beta, Seed: seed}); err != nil {
					t.Fatal(err)
				}
				sum += float64(w.LiveEdges(parallel.Default(), 0)) / m
			}
			if mean := sum / trials; mean > 3*beta {
				t.Fatalf("%s beta=%v: mean cut fraction %.3f exceeds 1.5x the 2*beta bound", name, beta, mean)
			}
		}
	}
}

func TestDecompMinCutTighter(t *testing.T) {
	// Decomp-Min's bound is beta*m (vs 2*beta*m for Arb); allow 2x slack on
	// the concentrated line workload.
	g := graph.Line(20000, 2)
	m := float64(g.NumDirected())
	const beta = 0.1
	var sum float64
	const trials = 5
	for seed := uint64(0); seed < trials; seed++ {
		w := NewWGraph(parallel.Default(), 0, g)
		if _, err := Decompose(w, Min, Options{Beta: beta, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		sum += float64(w.LiveEdges(parallel.Default(), 0)) / m
	}
	if mean := sum / trials; mean > 2*beta {
		t.Fatalf("mean cut fraction %.3f exceeds 2x the beta bound", mean)
	}
}

func TestHybridDenseAndSparseRoundsBothOccur(t *testing.T) {
	// A dense random graph's frontier explodes: the hybrid must take dense
	// rounds there. A line's frontier never exceeds a few vertices: all
	// rounds must stay sparse.
	tr := obs.NewTrace()
	g := graph.Random(5000, 5, 3)
	w := NewWGraph(parallel.Default(), 0, g)
	if _, err := Decompose(w, ArbHybrid, Options{Beta: 0.1, Seed: 1, Recorder: tr}); err != nil {
		t.Fatal(err)
	}
	anyDense := false
	for _, r := range tr.Rounds() {
		if r.Dense {
			anyDense = true
		}
	}
	if !anyDense {
		t.Fatal("no dense rounds on a dense random graph")
	}

	tr.Reset()
	gl := graph.Line(5000, 4)
	wl := NewWGraph(parallel.Default(), 0, gl)
	if _, err := Decompose(wl, ArbHybrid, Options{Beta: 0.1, Seed: 1, Recorder: tr}); err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Rounds() {
		if r.Dense {
			t.Fatal("dense round on a line graph")
		}
	}
}

func TestHybridForcedModes(t *testing.T) {
	// DenseFrac ~0 forces all-dense; DenseFrac 1 forces all-sparse. Both
	// must still satisfy the decomposition contract.
	g := graph.RMat(10, graph.RMatOptions{EdgeFactor: 8, Seed: 4})
	for _, frac := range []float64{1e-9, 1.0} {
		w := NewWGraph(parallel.Default(), 0, g)
		res, err := Decompose(w, ArbHybrid, Options{Beta: 0.2, Seed: 2, DenseFrac: frac})
		if err != nil {
			t.Fatal(err)
		}
		checkDecomposition(t, g, w, res, nil)
	}
}

func TestDecomposeIsolatedVerticesSingletons(t *testing.T) {
	g := graph.FromEdges(20, nil, graph.BuildOptions{})
	for _, variant := range variants {
		w := NewWGraph(parallel.Default(), 0, g)
		res, err := Decompose(w, variant, Options{Beta: 0.2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumCenters != 20 {
			t.Fatalf("%v: NumCenters=%d want 20", variant, res.NumCenters)
		}
		for v, l := range res.Labels {
			if l != int32(v) {
				t.Fatalf("%v: isolated vertex %d labeled %d", variant, v, l)
			}
		}
	}
}

func TestDecomposeRejectsBadOptions(t *testing.T) {
	g := graph.Line(10, 1)
	for _, beta := range []float64{-0.5, 1.0, 2.0} {
		w := NewWGraph(parallel.Default(), 0, g)
		if _, err := Decompose(w, Arb, Options{Beta: beta}); err == nil {
			t.Fatalf("beta=%v accepted", beta)
		}
	}
	w := NewWGraph(parallel.Default(), 0, g)
	if _, err := Decompose(w, Variant(99), Options{Beta: 0.2}); err == nil {
		t.Fatal("unknown variant accepted")
	}
	w2 := NewWGraph(parallel.Default(), 0, g)
	if _, err := Decompose(w2, ArbHybrid, Options{Beta: 0.2, DenseFrac: 2}); err == nil {
		t.Fatal("bad dense fraction accepted")
	}
}

// liveEntry is the level-entry input of n vertices that all have an edge,
// so none is settled and the schedule covers all n.
func liveEntry(n int) entry {
	deg := make([]int32, n)
	for v := range deg {
		deg[v] = 1
	}
	return entry{deg: deg, c: make([]int32, n)}
}

func TestShiftsProperties(t *testing.T) {
	const n = 100000
	const beta = 0.1
	s := newShiftDraw().newShifts(parallel.Default(), liveEntry(n), beta, 42, 0, workspace.New())
	if len(s.order) != n {
		t.Fatalf("order length %d", len(s.order))
	}
	seen := make([]bool, n)
	for _, v := range s.order {
		if seen[v] {
			t.Fatalf("vertex %d appears twice in order", v)
		}
		seen[v] = true
	}
	prev := 0
	for r := 0; r < len(s.cum)+10; r++ {
		e := s.end(r)
		if e < prev {
			t.Fatalf("schedule not monotone at round %d", r)
		}
		if e > n {
			t.Fatalf("schedule exceeds n at round %d", r)
		}
		prev = e
	}
	if s.end(0) < 1 {
		t.Fatal("round 0 adds no centers")
	}
	// The first chunks must be tiny relative to n (the exponential head
	// start: the max-shift vertex starts alone or nearly so) and the total
	// number of rounds ~ln(n)/beta.
	if s.end(0) > n/100 {
		t.Fatalf("round 0 starts %d centers; schedule is flooding", s.end(0))
	}
	wantRounds := int(12 / beta) // ln(1e5) ~= 11.5
	if len(s.cum) > 3*wantRounds {
		t.Fatalf("%d rounds, expected on the order of %d", len(s.cum), wantRounds)
	}
	if s.end(len(s.cum)+5) != n {
		t.Fatal("schedule never reaches n")
	}
	if ff := s.fastForward(0, n-1); s.end(ff) != n {
		t.Fatal("fastForward did not reach a productive round")
	}
	// Chunk sizes grow roughly geometrically: the last chunk dwarfs the
	// first rounds' chunks.
	last := s.end(len(s.cum)-1) - s.end(len(s.cum)-2)
	if last < n/100 {
		t.Fatalf("final chunk %d too small for exponential growth", last)
	}
	// Determinism per seed.
	s2 := newShiftDraw().newShifts(parallel.Default(), liveEntry(n), beta, 42, 4, workspace.New())
	for i := range s.order {
		if s.order[i] != s2.order[i] {
			t.Fatalf("order differs at %d across proc counts", i)
		}
	}
}

func TestShiftsTinyN(t *testing.T) {
	for n := 0; n <= 3; n++ {
		s := newShiftDraw().newShifts(parallel.Default(), liveEntry(n), 0.5, 1, 1, workspace.New())
		if len(s.order) != n {
			t.Fatalf("n=%d: order length %d", n, len(s.order))
		}
		if n > 0 && s.end(1000) != n {
			t.Fatalf("n=%d: never reaches n", n)
		}
	}
	// With n=2 and large beta, across seeds the two vertices must sometimes
	// start in different rounds — this is what lets the CC recursion bottom
	// out on a stubborn 2-vertex remainder (see shifts doc comment).
	separated := false
	for seed := uint64(0); seed < 64 && !separated; seed++ {
		s := newShiftDraw().newShifts(parallel.Default(), liveEntry(2), 0.9, seed, 1, workspace.New())
		separated = s.end(0) == 1
	}
	if !separated {
		t.Fatal("n=2 vertices never start in different rounds")
	}
}

func TestPackPairOrdering(t *testing.T) {
	// Lexicographic packed comparison with signed c1.
	if packPair(-1, 5) >= packPair(0, 0) {
		t.Fatal("(-1,x) must be smaller than any non-negative mark")
	}
	if packPair(3, 7) >= packPair(4, 0) {
		t.Fatal("c1 must dominate")
	}
	if packPair(3, 7) >= packPair(3, 8) {
		t.Fatal("c2 must tie-break")
	}
	if pairC1(packPair(-1, 9)) != -1 || pairC2(packPair(-1, 9)) != 9 {
		t.Fatal("pack/unpack roundtrip failed")
	}
	if pairC1(packPair(minInf, minInf)) != minInf {
		t.Fatal("inf roundtrip failed")
	}
}

func TestWriteMin(t *testing.T) {
	v := packPair(minInf, minInf)
	if ok, _ := writeMin(&v, packPair(10, 3)); !ok {
		t.Fatal("writeMin to inf failed")
	}
	if ok, _ := writeMin(&v, packPair(10, 3)); ok {
		t.Fatal("writeMin of equal value succeeded")
	}
	if ok, lost := writeMin(&v, packPair(11, 0)); ok || lost != 0 {
		t.Fatal("writeMin of larger value succeeded")
	}
	if ok, _ := writeMin(&v, packPair(9, 100)); !ok {
		t.Fatal("writeMin of smaller value failed")
	}
	if pairC1(v) != 9 || pairC2(v) != 100 {
		t.Fatal("wrong final value")
	}
}

func TestWGraphLiveEdges(t *testing.T) {
	g := graph.Line(10, 1)
	w := NewWGraph(parallel.Default(), 0, g)
	if w.LiveEdges(parallel.Default(), 0) != g.NumDirected() {
		t.Fatalf("LiveEdges=%d want %d", w.LiveEdges(parallel.Default(), 0), g.NumDirected())
	}
	w.Deg[0] = 0
	if w.LiveEdges(parallel.Default(), 0) != g.NumDirected()-int64(g.Degree(0)) {
		t.Fatal("LiveEdges does not track Deg")
	}
}

func TestPhasesRecorded(t *testing.T) {
	g := graph.Random(3000, 5, 1)
	for _, variant := range variants {
		tr := obs.NewTrace()
		w := NewWGraph(parallel.Default(), 0, g)
		if _, err := Decompose(w, variant, Options{Beta: 0.2, Seed: 1, Recorder: tr}); err != nil {
			t.Fatal(err)
		}
		pt := make(map[string]time.Duration)
		var total time.Duration
		for _, p := range tr.Phases() {
			pt[p.Name] += p.Duration
			total += p.Duration
		}
		if total <= 0 {
			t.Fatalf("%v: no phase time recorded", variant)
		}
		switch variant {
		case Min:
			if pt[obs.PhaseBFSPhase1] <= 0 || pt[obs.PhaseBFSPhase2] <= 0 || pt[obs.PhaseBFSMain] != 0 {
				t.Fatalf("%v: wrong phases populated: %v", variant, pt)
			}
		case Arb:
			if pt[obs.PhaseBFSMain] <= 0 || pt[obs.PhaseBFSPhase1] != 0 || pt[obs.PhaseFilterEdges] != 0 {
				t.Fatalf("%v: wrong phases populated: %v", variant, pt)
			}
		case ArbHybrid:
			if pt[obs.PhaseFilterEdges] <= 0 || pt[obs.PhaseBFSMain] != 0 {
				t.Fatalf("%v: wrong phases populated: %v", variant, pt)
			}
		}
	}
}

func TestVariantString(t *testing.T) {
	if Min.String() != "decomp-min" || Arb.String() != "decomp-arb" || ArbHybrid.String() != "decomp-arb-hybrid" {
		t.Fatal("variant names changed")
	}
	if Variant(42).String() == "" {
		t.Fatal("unknown variant has empty name")
	}
}
