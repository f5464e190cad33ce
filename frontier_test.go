package parconn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// bfsFrontierHashes pins the serial (procs=1) Dist and Parent arrays of the
// public BFS on the frontier-invariant inputs.
var bfsFrontierHashes = map[string]uint64{
	"star": 0xac76a9ac14a84b56,
	"line": 0x91f15539b8d66421,
}

// TestBFSFrontierInvariants runs the public BFS on a star (the hub claims
// every leaf from one block, far past an appender's staging capacity) and a
// line (each block claims one vertex) at several worker counts. A vertex
// appended to two frontiers, or twice to one, would be counted twice in
// Visited; one lost would leave its Dist at -1.
func TestBFSFrontierInvariants(t *testing.T) {
	inputs := []struct {
		name string
		g    *Graph
		src  int32
	}{
		{"star", StarGraph(20001), 1},
		{"line", LineGraph(5000, 3), 0},
	}
	for _, in := range inputs {
		n := in.g.NumVertices()
		for _, procs := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/procs=%d", in.name, procs), func(t *testing.T) {
				res, err := BFS(in.g, in.src, procs)
				if err != nil {
					t.Fatal(err)
				}
				if res.Visited != n {
					t.Fatalf("visited %d, want n=%d", res.Visited, n)
				}
				levels := make([]int, res.Rounds)
				for v, d := range res.Dist {
					if d < 0 || int(d) >= res.Rounds {
						t.Fatalf("dist[%d]=%d outside [0,%d)", v, d, res.Rounds)
					}
					levels[d]++
					if p := res.Parent[v]; d > 0 && res.Dist[p] != d-1 {
						t.Fatalf("parent %d of %d is at distance %d, want %d", p, v, res.Dist[p], d-1)
					}
				}
				for d, size := range levels {
					if size == 0 {
						t.Fatalf("level %d is empty", d)
					}
				}
				if procs == 1 {
					h := fnv.New64a()
					var b [4]byte
					for _, xs := range [][]int32{res.Dist, res.Parent} {
						for _, x := range xs {
							binary.LittleEndian.PutUint32(b[:], uint32(x))
							h.Write(b[:])
						}
					}
					if got, want := h.Sum64(), bfsFrontierHashes[in.name]; got != want {
						t.Fatalf("serial Dist/Parent hash %#x, want %#x", got, want)
					}
				}
			})
		}
	}
}
