package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"parconn/internal/prand"
)

// Stats summarizes a graph's structure; see Summarize.
type Stats struct {
	Vertices        int
	UndirectedEdges int64
	MinDegree       int32
	MaxDegree       int32
	AvgDegree       float64
	MedianDegree    int32
	Isolated        int   // vertices with degree 0
	Components      int   // connected components
	LargestComp     int   // size of the largest component
	ApproxDiameter  int32 // lower bound from double-sweep BFS on the largest component
}

// Summarize computes structural statistics. Component structure comes from
// the sequential reference (this is a reporting utility, not a hot path);
// the diameter estimate is the classic double-sweep lower bound: BFS from a
// random vertex, then BFS again from the farthest vertex found.
func Summarize(g *Graph, seed uint64) Stats {
	s := Stats{Vertices: g.N, UndirectedEdges: g.NumUndirected()}
	if g.N == 0 {
		return s
	}
	degs := Degrees(g)
	sorted := append([]int32(nil), degs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s.MinDegree = sorted[0]
	s.MaxDegree = sorted[len(sorted)-1]
	s.MedianDegree = sorted[len(sorted)/2]
	s.AvgDegree = float64(g.NumDirected()) / float64(g.N)
	for _, d := range degs {
		if d == 0 {
			s.Isolated++
		}
	}
	labels := RefCC(g)
	sizes := ComponentSizesOf(labels)
	s.Components = len(sizes)
	bestLabel := int32(-1)
	for l, sz := range sizes {
		if sz > s.LargestComp || (sz == s.LargestComp && (bestLabel < 0 || l < bestLabel)) {
			s.LargestComp = sz
			bestLabel = l
		}
	}
	// Double sweep inside the largest component.
	start := bestLabel
	if s.LargestComp > 1 {
		// Random member of the largest component as the first sweep source.
		src := prand.New(seed)
		for tries := 0; tries < 64; tries++ {
			v := int32(src.Intn(g.N)) //parconn:allow conversioncheck Intn(g.N) < g.N, and vertex counts fit int32 by construction
			if labels[v] == bestLabel {
				start = v
				break
			}
		}
		d1 := BFSDistances(g, start)
		far, fd := start, int32(0)
		for v, d := range d1 {
			if d > fd {
				far, fd = int32(v), d
			}
		}
		d2 := BFSDistances(g, far)
		for _, d := range d2 {
			if d > s.ApproxDiameter {
				s.ApproxDiameter = d
			}
		}
	}
	return s
}

// String renders the stats as a small report.
func (s Stats) String() string {
	return fmt.Sprintf(
		"vertices=%d edges=%d degree[min/med/avg/max]=%d/%d/%.2f/%d isolated=%d components=%d largest=%d diameter>=%d",
		s.Vertices, s.UndirectedEdges, s.MinDegree, s.MedianDegree, s.AvgDegree, s.MaxDegree,
		s.Isolated, s.Components, s.LargestComp, s.ApproxDiameter)
}

// ComponentSize is one component of a labeling: its label and vertex count.
type ComponentSize struct {
	Label int32 `json:"label"`
	Size  int   `json:"size"`
}

// ComponentSummary scans a labeling once and returns the number of distinct
// components and the k largest (size descending, ties by ascending label,
// so the answer is deterministic). k <= 0 returns every component, sorted.
// This is the shared read side of a published labeling: cmd/connect's
// report renders it.
func ComponentSummary(labels []int32, k int) (count int, top []ComponentSize) {
	sizes := ComponentSizesOf(labels)
	top = make([]ComponentSize, 0, len(sizes))
	for l, s := range sizes {
		top = append(top, ComponentSize{Label: l, Size: s})
	}
	return len(sizes), largest(top, k)
}

// SizeSummary is ComponentSummary over sizes, the component size per label
// (0 for a label that names no component), as a server indexes a
// labeling whose labels are vertex ids.
func SizeSummary(sizes []int32, k int) (count int, top []ComponentSize) {
	top = []ComponentSize{}
	for l, s := range sizes {
		if s > 0 {
			top = append(top, ComponentSize{Label: int32(l), Size: int(s)})
		}
	}
	return len(top), largest(top, k)
}

// largest sorts top by size descending, ties by ascending label, and
// truncates it to k entries when k > 0.
func largest(top []ComponentSize, k int) []ComponentSize {
	slices.SortFunc(top, func(a, b ComponentSize) int {
		if c := cmp.Compare(b.Size, a.Size); c != 0 {
			return c
		}
		return cmp.Compare(a.Label, b.Label)
	})
	if k > 0 && len(top) > k {
		top = top[:k]
	}
	return top
}
