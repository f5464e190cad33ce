package parconn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// ccLabelHashes pins the serial (procs=1, seed 9) ConnectedComponents labels
// per input. Every decomposition variant in every dedup mode must produce
// them: a component's label is its root, and the level seeds pick the same
// roots whichever variant grows the balls and however duplicates are
// removed. Partition checks alone would let a contraction rewrite renumber
// components silently; these must not move when contraction or RELABELUP
// change shape.
var ccLabelHashes = map[string]uint64{
	"line-200k":  0xa396b9ea2be9525,
	"rmat-16":    0x87d41edae4e122e3,
	"random-50k": 0xfcccbed3e455d3a5,
	"grid3d-40":  0xf2576187e115d325,
	"star-20k":   0xe5614ba968dd7d65,
}

// TestCCLabelsPinned hashes the procs=1 labels over five input families,
// the three decomposition variants and the three dedup modes.
func TestCCLabelsPinned(t *testing.T) {
	inputs := []struct {
		name string
		g    *Graph
	}{
		{"line-200k", LineGraph(200_000, 1)},
		{"rmat-16", RMatGraph(16, RMatOptions{EdgeFactor: 8, Seed: 1})},
		{"random-50k", RandomGraph(50_000, 5, 1)},
		{"grid3d-40", Grid3DGraph(40, 1)},
		{"star-20k", StarGraph(20_000)},
	}
	for _, in := range inputs {
		for _, alg := range []Algorithm{DecompArbHybrid, DecompArb, DecompMin} {
			for _, dedup := range []DedupMode{DedupHash, DedupSort, DedupNone} {
				t.Run(fmt.Sprintf("%s/%s/%s", in.name, alg, dedup), func(t *testing.T) {
					labels, err := ConnectedComponents(in.g, Options{Algorithm: alg, Dedup: dedup, Seed: 9, Procs: 1})
					if err != nil {
						t.Fatal(err)
					}
					h := fnv.New64a()
					var b [4]byte
					for _, x := range labels {
						binary.LittleEndian.PutUint32(b[:], uint32(x))
						h.Write(b[:])
					}
					if got, want := h.Sum64(), ccLabelHashes[in.name]; got != want {
						t.Errorf("labels hash %#x, want %#x", got, want)
					}
				})
			}
		}
	}
}
