package parconn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"parconn/internal/obs"
)

// TestGoldenAdjacencyFormat pins the exact bytes of the text format: other
// PBBS/Ligra tooling parses these files, so even whitespace changes are
// breaking.
func TestGoldenAdjacencyFormat(t *testing.T) {
	g, err := NewGraph(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	want := "AdjacencyGraph\n3\n4\n0\n1\n3\n1\n0\n2\n1\n"
	if buf.String() != want {
		t.Fatalf("format drifted:\ngot  %q\nwant %q", buf.String(), want)
	}
}

// TestGoldenBinaryFormat pins the binary header layout.
func TestGoldenBinaryFormat(t *testing.T) {
	g, err := NewGraph(2, []Edge{{U: 0, V: 1}}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if string(b[:8]) != "PCONNGR1" {
		t.Fatalf("magic drifted: %q", b[:8])
	}
	// n=2, m=2 little-endian uint64s follow the magic.
	if b[8] != 2 || b[16] != 2 {
		t.Fatalf("header drifted: % x", b[8:24])
	}
	// total: 8 magic + 16 sizes + 3*8 offsets + 2*4 edges
	if len(b) != 8+16+24+8 {
		t.Fatalf("length %d", len(b))
	}
}

// goldenLevel is the part of a level's LevelEnd a golden run pins.
type goldenLevel struct {
	Rounds, Components int
	EdgesCut           int64
}

// goldenRun is a decomposition run's pinned outcome at Procs: 1: a hash of
// the labels, each level's LevelEnd counts, and a hash over every Round
// event's (level, round, frontier, new centers, dense) with their number.
type goldenRun struct {
	labels uint64
	levels []goldenLevel
	rounds int
	events uint64
}

// recordGolden runs alg on g at Procs: 1 and folds what goldenRun pins.
func recordGolden(t *testing.T, g *Graph, alg Algorithm, seed uint64) goldenRun {
	t.Helper()
	var tr obs.Trace
	labels, err := ConnectedComponents(g, Options{Algorithm: alg, Beta: 0.5, Seed: seed, Procs: 1, Recorder: &tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyLabeling(g, labels); err != nil {
		t.Fatal(err)
	}
	var got goldenRun
	h := fnv.New64a()
	for _, l := range labels {
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(l)))
	}
	got.labels = h.Sum64()
	for _, e := range tr.LevelEnds() {
		got.levels = append(got.levels, goldenLevel{Rounds: e.Rounds, Components: e.Components, EdgesCut: e.EdgesCut})
	}
	h.Reset()
	for _, r := range tr.Rounds() {
		fmt.Fprintf(h, "%d %d %d %d %t\n", r.Level, r.Round, r.Frontier, r.NewCenters, r.Dense)
		got.rounds++
	}
	got.events = h.Sum64()
	return got
}

// TestGoldenDecompLabels pins each decomposition variant's exact labels and
// round structure at Procs: 1 on a graph with dense rounds, edgeless
// vertices and several contraction levels. One worker makes Arb's CAS
// winners and the hybrid's frontiers deterministic; if this test breaks,
// the shift schedule, the round numbering, the center counts or the
// tie-breaking changed, which silently invalidates recorded experiments.
func TestGoldenDecompLabels(t *testing.T) {
	g := Union(RMatGraph(12, RMatOptions{EdgeFactor: 10, Seed: 7, KeepDuplicates: true}),
		Grid3DGraph(12, 7), LineGraph(2000, 7), mustGraph(64, nil))
	// Min and Arb visit the same frontiers (tie-breaking decides who claims
	// a vertex, not when it is reached), so only their cuts differ.
	want := map[Algorithm]goldenRun{
		DecompMin: {labels: 0x240374b795bbe580, rounds: 70, events: 0x14ea0bbd6b902a03, levels: []goldenLevel{
			{22, 1515, 3044}, {17, 99, 258}, {11, 28, 52}, {6, 7, 10}, {3, 4, 6}, {3, 2, 2},
			{1, 2, 2}, {1, 2, 2}, {1, 2, 2}, {1, 2, 2}, {1, 2, 2}, {1, 2, 2}, {2, 1, 0}}},
		DecompArb: {labels: 0x240374b795bbe580, rounds: 70, events: 0x14ea0bbd6b902a03, levels: []goldenLevel{
			{22, 1515, 2872}, {17, 99, 208}, {11, 28, 52}, {6, 7, 10}, {3, 4, 6}, {3, 2, 2},
			{1, 2, 2}, {1, 2, 2}, {1, 2, 2}, {1, 2, 2}, {1, 2, 2}, {1, 2, 2}, {2, 1, 0}}},
		DecompArbHybrid: {labels: 0x240374b795bbe580, rounds: 70, events: 0xabe299827f21b9bc, levels: []goldenLevel{
			{22, 1515, 2872}, {17, 99, 208}, {11, 28, 52}, {6, 7, 10}, {3, 4, 6}, {3, 2, 2},
			{1, 2, 2}, {1, 2, 2}, {1, 2, 2}, {1, 2, 2}, {1, 2, 2}, {1, 2, 2}, {2, 1, 0}}},
	}
	for _, alg := range []Algorithm{DecompMin, DecompArb, DecompArbHybrid} {
		t.Run(alg.String(), func(t *testing.T) {
			got := recordGolden(t, g, alg, 12345)
			w, ok := want[alg]
			if !ok || got.labels != w.labels || got.rounds != w.rounds || got.events != w.events ||
				!slices.Equal(got.levels, w.levels) {
				t.Fatalf("golden run drifted:\ngot  %#v\nwant %#v", got, w)
			}
		})
	}
	// Decomp-Min's writeMin winners are unique, so its labeling is also
	// independent of the worker count.
	one, err := ConnectedComponents(g, Options{Algorithm: DecompMin, Seed: 12345, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := ConnectedComponents(g, Options{Algorithm: DecompMin, Seed: 12345, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(one, four) {
		t.Fatal("decomp-min labels depend on the worker count")
	}
}
