package decomp

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"parconn/internal/graph"
	"parconn/internal/obs"
	"parconn/internal/parallel"
)

// frontierLabelHashes pins the serial (procs=1) labels of every variant on
// the frontier inputs. Staged appends keep a serial section's frontier in
// scan order, so these must not move when the append mechanism changes.
var frontierLabelHashes = map[string]uint64{
	"star/decomp-min":        0xfd6102a6f88dd75,
	"star/decomp-arb":        0xfd6102a6f88dd75,
	"star/decomp-arb-hybrid": 0xfd6102a6f88dd75,
	"line/decomp-min":        0xc46217c730765885,
	"line/decomp-arb":        0x2b2e83c20a14fdf,
	"line/decomp-arb-hybrid": 0x2b2e83c20a14fdf,
}

func hashInt32s(xs []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// frontierRecorder inspects, at every Round event, the frontier the machine
// has just processed: it must hold exactly Frontier vertices, none of them
// repeated and none seen on an earlier round's frontier.
type frontierRecorder struct {
	obs.Nop
	cur      func() []int32
	seen     []bool
	total    int
	maxFront int
	err      error
}

func (r *frontierRecorder) Round(e obs.Round) {
	front := r.cur()
	r.total += e.Frontier
	r.maxFront = max(r.maxFront, e.Frontier)
	if r.err != nil {
		return
	}
	if len(front) != e.Frontier {
		r.err = fmt.Errorf("round %d: frontier holds %d vertices, event says %d", e.Round, len(front), e.Frontier)
		return
	}
	for _, v := range front {
		if r.seen[v] {
			r.err = fmt.Errorf("round %d: vertex %d appended twice", e.Round, v)
			return
		}
		r.seen[v] = true
	}
}

// TestFrontierInvariants runs every variant at several worker counts and
// checks the shared-frontier invariants the staged appends must keep: each
// round's frontier is duplicate-free, every vertex is on exactly one
// frontier (so the per-round counts sum to n), and the serial labels are
// the pinned ones.
func TestFrontierInvariants(t *testing.T) {
	// A star whose hub claims far more leaves in one block than an appender
	// stages, and a line whose blocks each claim a vertex or two.
	inputs := []struct {
		name string
		g    *graph.Graph
	}{
		{"star", graph.Star(20001)},
		{"line", graph.Line(5000, 3)},
	}
	for _, in := range inputs {
		for _, variant := range variants {
			for _, procs := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/procs=%d", in.name, variant, procs), func(t *testing.T) {
					sc := &Scratch{}
					rec := &frontierRecorder{seen: make([]bool, in.g.N)}
					switch variant {
					case Min:
						m := sc.minM()
						rec.cur = func() []int32 { return m.cur }
					case Arb:
						m := sc.arbM()
						rec.cur = func() []int32 { return m.cur }
					case ArbHybrid:
						m := sc.hybridM()
						rec.cur = func() []int32 { return m.cur }
					}
					pool := parallel.NewPool(procs)
					defer pool.Close()
					w := NewWGraph(parallel.Default(), procs, in.g)
					res, err := Decompose(w, variant, Options{
						Procs: procs, Seed: 7, Pool: pool, Scratch: sc, Recorder: rec,
					})
					if err != nil {
						t.Fatal(err)
					}
					if rec.err != nil {
						t.Fatal(rec.err)
					}
					if rec.total != in.g.N {
						t.Fatalf("per-round frontier counts sum to %d, want n=%d", rec.total, in.g.N)
					}
					if in.name == "star" && rec.maxFront <= parallel.StageCap {
						t.Fatalf("largest frontier %d never exceeds the staging capacity %d", rec.maxFront, parallel.StageCap)
					}
					checkDecomposition(t, in.g, w, res, nil)
					if procs == 1 {
						key := in.name + "/" + variant.String()
						if got, want := hashInt32s(res.Labels), frontierLabelHashes[key]; got != want {
							t.Fatalf("serial labels hash %#x, want %#x", got, want)
						}
					}
				})
			}
		}
	}
}

// TestAvgDegRounds checks the level's average degree, which sizes the
// frontier grains: it is rounded to the nearest integer, so a line reads 2
// (not 1, as truncating its 2 - 2/n did) and rMat's 10.17 reads 10.
func TestAvgDegRounds(t *testing.T) {
	rmat := graph.RMat(10, graph.RMatOptions{EdgeFactor: 5, Seed: 1})
	for _, c := range []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"line", graph.Line(5000, 1), 2},
		{"star", graph.Star(100), 2},
		{"edgeless", graph.FromEdges(10, nil, graph.BuildOptions{}), 1},
		{"rmat", rmat, int64(math.Round(float64(rmat.NumDirected()) / float64(rmat.N)))},
	} {
		var f frontier
		f.init()
		f.begin(NewWGraph(parallel.Default(), 1, c.g), Options{Procs: 1})
		if f.avgDeg != c.want {
			t.Errorf("%s: avgDeg %d, want %d", c.name, f.avgDeg, c.want)
		}
	}
	var f frontier
	f.init()
	f.begin(&WGraph{N: 4, Offs: []int64{0, 2, 5, 8, 10}}, Options{})
	if f.avgDeg != 3 { // 10/4 = 2.5 rounds up
		t.Errorf("avgDeg of 10 edges on 4 vertices is %d, want 3", f.avgDeg)
	}
}
