package baseline

import (
	"parconn/internal/graph"
	"parconn/internal/parallel"
	"parconn/internal/unionfind"
)

// SampledSF is a two-phase sampling accelerator over the CAS union-find
// spanning forest, in the spirit of the sampling-based work-efficient
// algorithms the paper cites (Gazit; Halperin-Zwick) and of the later
// ConnectIt framework (Dhulipala et al.): most real graphs have a giant
// component, so
//
//  1. union a small sample of edges (the first k out-edges of every
//     vertex), find the most frequent root — w.h.p. the giant component —
//  2. then process only the edges not already internal to it.
//
// Phase 2 skips the vast majority of edges on giant-component graphs while
// remaining exactly correct on adversarial ones (every edge is either
// sampled, skipped-as-internal, or processed).
func SampledSF(pool *parallel.Pool, procs int, g *graph.Graph, sampleK int) []int32 {
	n := g.N
	if sampleK < 1 {
		sampleK = 2
	}
	u := unionfind.NewConcurrent(n)
	// Phase 1: sample the first sampleK out-edges per vertex.
	pool.Blocks(procs, n, 512, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			nbrs := g.Neighbors(int32(v))
			if len(nbrs) > sampleK {
				nbrs = nbrs[:sampleK]
			}
			for _, w := range nbrs {
				u.Union(int32(v), w)
			}
		}
	})
	// Identify the plurality root by counting a fixed-size random probe
	// (exact counting would cost O(n); a 1024-vertex probe finds a
	// component holding >= a few percent of vertices w.h.p.).
	probe := 1024
	if probe > n {
		probe = n
	}
	counts := make(map[int32]int, probe)
	step := 1
	if n > probe {
		step = n / probe
	}
	giant, best := int32(-1), 0
	for v := 0; v < n; v += step {
		r := u.Find(int32(v))
		counts[r]++
		if counts[r] > best {
			giant, best = r, counts[r]
		}
	}
	// Phase 2: process the remaining edges, skipping vertices already in
	// the giant component (their sampled edges either stayed internal or
	// will be seen from the other endpoint if it is outside).
	pool.Blocks(procs, n, 512, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			nbrs := g.Neighbors(int32(v))
			if len(nbrs) <= sampleK {
				continue // fully covered by the sample
			}
			if u.Find(int32(v)) == giant {
				// Skip iff v is already in the giant component AND all of
				// v's remaining neighbors can still reach it through their
				// own scans — which requires the symmetric edge, and this
				// library stores both directions, so skipping here is safe:
				// an outside neighbor w scans (w, v) itself.
				continue
			}
			for _, w := range nbrs[sampleK:] {
				u.Union(int32(v), w)
			}
		}
	})
	return findAll(pool, procs, n, u.Find)
}
