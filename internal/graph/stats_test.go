package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestSummarizeLine(t *testing.T) {
	g := Line(100, 1)
	s := Summarize(g, 2)
	if s.Vertices != 100 || s.UndirectedEdges != 99 {
		t.Fatalf("%+v", s)
	}
	if s.MinDegree != 1 || s.MaxDegree != 2 {
		t.Fatalf("degrees: %+v", s)
	}
	if s.Components != 1 || s.LargestComp != 100 {
		t.Fatalf("components: %+v", s)
	}
	// Double sweep finds the exact diameter of a path.
	if s.ApproxDiameter != 99 {
		t.Fatalf("diameter=%d want 99", s.ApproxDiameter)
	}
	if s.Isolated != 0 {
		t.Fatalf("isolated=%d", s.Isolated)
	}
	if !strings.Contains(s.String(), "components=1") {
		t.Fatalf("String()=%q", s.String())
	}
}

func TestSummarizeMixed(t *testing.T) {
	g := Components(Line(10, 1), FromEdges(5, nil, BuildOptions{}))
	s := Summarize(g, 1)
	if s.Components != 6 {
		t.Fatalf("components=%d want 6", s.Components)
	}
	if s.Isolated != 5 {
		t.Fatalf("isolated=%d want 5", s.Isolated)
	}
	if s.LargestComp != 10 {
		t.Fatalf("largest=%d want 10", s.LargestComp)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(FromEdges(0, nil, BuildOptions{}), 1)
	if s.Vertices != 0 || s.Components != 0 {
		t.Fatalf("%+v", s)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for name, g := range map[string]*Graph{
		"line":     Line(200, 1),
		"rmat":     RMat(8, RMatOptions{EdgeFactor: 4, Seed: 2}),
		"empty":    FromEdges(0, nil, BuildOptions{}),
		"isolated": FromEdges(7, nil, BuildOptions{}),
	} {
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.N != g.N || got.NumDirected() != g.NumDirected() {
			t.Fatalf("%s: shape mismatch", name)
		}
		for i := range g.Offs {
			if got.Offs[i] != g.Offs[i] {
				t.Fatalf("%s: offset %d", name, i)
			}
		}
		for i := range g.Adj {
			if got.Adj[i] != g.Adj[i] {
				t.Fatalf("%s: adj %d", name, i)
			}
		}
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	g := Line(50, 1)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncations at every boundary region.
	for _, cut := range []int{4, 12, 20, 60, len(good) - 3} {
		if _, err := ReadBinary(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Corrupt an edge target to out-of-range.
	bad = append([]byte(nil), good...)
	bad[len(bad)-4] = 0xFF
	bad[len(bad)-3] = 0xFF
	bad[len(bad)-2] = 0xFF
	bad[len(bad)-1] = 0x7F
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestVerifyLabelingAcceptsCorrect(t *testing.T) {
	for name, g := range map[string]*Graph{
		"line":  Line(500, 1),
		"multi": Components(Line(50, 2), Grid3D(4, 3), FromEdges(9, nil, BuildOptions{})),
		"empty": FromEdges(0, nil, BuildOptions{}),
	} {
		if err := VerifyLabeling(g, RefCC(g)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestVerifyLabelingRejectsWrong(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {2, 3}}, BuildOptions{})
	correct := RefCC(g) // [0,0,2,2]

	// Wrong length.
	if VerifyLabeling(g, correct[:2]) == nil {
		t.Fatal("short labeling accepted")
	}
	// Out of range.
	if VerifyLabeling(g, []int32{0, 0, 2, 9}) == nil {
		t.Fatal("out-of-range accepted")
	}
	// Non-canonical: labels[3]=2 but vertex 3's own label points elsewhere.
	if VerifyLabeling(g, []int32{0, 0, 3, 2}) == nil {
		t.Fatal("non-canonical accepted")
	}
	// Valid alternative canonical choice must be accepted.
	if err := VerifyLabeling(g, []int32{1, 1, 2, 2}); err != nil {
		t.Fatalf("valid labeling rejected: %v", err)
	}
	// Inconsistent across an edge.
	if VerifyLabeling(g, []int32{0, 2, 2, 2}) == nil {
		t.Fatal("edge-crossing labels accepted")
	}
	// Merged: two components share one label (0 and 2 both labeled 0).
	// Consistency holds on every edge, but class 0 is disconnected.
	if VerifyLabeling(g, []int32{0, 0, 0, 0}) == nil {
		t.Fatal("merged components accepted")
	}
}

func TestComponentSummary(t *testing.T) {
	labels := []int32{7, 7, 7, 2, 2, 9, 9, 9, 4}
	count, top := ComponentSummary(labels, 2)
	if count != 4 {
		t.Fatalf("count = %d want 4", count)
	}
	want := []ComponentSize{{Label: 7, Size: 3}, {Label: 9, Size: 3}}
	if len(top) != 2 || top[0] != want[0] || top[1] != want[1] {
		t.Fatalf("top = %+v want %+v (size desc, ties by label asc)", top, want)
	}
	// k <= 0 returns every component, still sorted.
	count, all := ComponentSummary(labels, 0)
	if count != 4 || len(all) != 4 || all[3] != (ComponentSize{Label: 4, Size: 1}) {
		t.Fatalf("all = %+v", all)
	}
	if c, top := ComponentSummary(nil, 3); c != 0 || len(top) != 0 {
		t.Fatalf("empty labeling: %d %+v", c, top)
	}
	// SizeSummary ranks the same components from a size per label.
	sizes := make([]int32, 10)
	for _, l := range labels {
		sizes[l]++
	}
	if c, top := SizeSummary(sizes, 2); c != 4 || len(top) != 2 || top[0] != want[0] || top[1] != want[1] {
		t.Fatalf("SizeSummary = %d, %+v want 4, %+v", c, top, want)
	}
	if c, top := SizeSummary(nil, 3); c != 0 || top == nil || len(top) != 0 {
		t.Fatalf("no sizes: %d %#v, want 0 and an empty list", c, top)
	}
}
