package serve

import (
	"fmt"
	"sync"

	"parconn/internal/graph"
	"parconn/internal/obs"
)

// view answers the queries of one or more epochs: an immutable labeling
// and the size of each of its components. Epochs whose inserts merged
// nothing share their predecessor's view.
type view struct {
	labels     []int32
	sizes      []int32 // vertices per label (0 for a vertex id that labels nothing)
	components int

	statsOnce sync.Once
	stats     viewStats // computed on first use, see statsFor
}

// viewStats is the part of /v1/stats that takes an n-wide pass.
type viewStats struct {
	top  []graph.ComponentSize
	hist obs.HistogramSnapshot
}

// newView indexes labels, which must all be vertex ids, as in the
// canonical labelings ConnectedComponents returns.
func newView(labels []int32) *view {
	sizes := make([]int32, len(labels))
	components := 0
	for v, l := range labels {
		if uint(l) >= uint(len(labels)) {
			panic(fmt.Sprintf("serve: label %d of vertex %d is not a vertex id in [0, %d)", l, v, len(labels)))
		}
		if sizes[l] == 0 {
			components++
		}
		sizes[l]++
	}
	return &view{labels: labels, sizes: sizes, components: components}
}

// component returns v's label and the size of its component.
func (w *view) component(v int32) (label, size int32) {
	l := w.labels[v]
	return l, w.sizes[l]
}

// statsFor returns the top-k components and the size histogram, computed
// once per view.
func (w *view) statsFor(k int) *viewStats {
	w.statsOnce.Do(func() {
		var hist obs.Histogram
		for _, size := range w.sizes {
			if size > 0 {
				hist.Record(int64(size))
			}
		}
		_, top := graph.SizeSummary(w.sizes, k)
		w.stats = viewStats{top: top, hist: hist.Snapshot()}
	})
	return &w.stats
}
