package parconn

import (
	"bytes"
	"testing"
)

func TestVerifyLabelingPublic(t *testing.T) {
	g := Union(LineGraph(50, 1), Grid3DGraph(3, 2))
	for _, alg := range Algorithms {
		labels, err := ConnectedComponents(g, Options{Algorithm: alg, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyLabeling(g, labels); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
	}
	bad := make([]int32, g.NumVertices())
	if VerifyLabeling(g, bad) == nil {
		t.Fatal("all-zero labeling accepted on a disconnected graph")
	}
}

func TestSummarizePublic(t *testing.T) {
	s := Summarize(LineGraph(100, 1), 1)
	if s.Components != 1 || s.ApproxDiameter != 99 {
		t.Fatalf("%+v", s)
	}
}

func TestBinaryGraphPublic(t *testing.T) {
	g := RMatGraph(8, RMatOptions{EdgeFactor: 4, Seed: 1})
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinaryGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != g.NumEdges() {
		t.Fatal("binary round trip changed edge count")
	}
	if _, err := ReadBinaryGraph(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("garbage accepted")
	}
}
