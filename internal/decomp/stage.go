package decomp

import "sync/atomic"

// claimBatch is how many frontier vertices a claim loop stages at once.
// touchCap is how many leading targets of each staged list get their label
// touched. Both bound fixed stack arrays, so staging allocates nothing.
const (
	claimBatch = 32
	touchCap   = 4
)

// stagedLists holds the list positions of one batch of frontier vertices.
// A claim loop's successful CAS is a full fence on amd64 (LOCK CMPXCHG), so
// the CPU cannot overlap one vertex's dependent misses — Offs/Deg[v], then
// Adj[start], then c[w] — with the next vertex's while it claims. stage
// issues those loads for a whole batch back to back, before any CAS, so
// their misses overlap; the claim loop then runs on the staged positions
// and finds the lines in cache. The touches are hints: the claim loop reads
// and claims exactly as it would without them (DESIGN.md §9).
type stagedLists struct {
	start [claimBatch]int64
	deg   [claimBatch]int64
	tgt   [claimBatch * touchCap]int32
}

// stage loads the list positions of vs (len(vs) <= claimBatch) into s and
// touches the labels of the first touchCap targets of each list. Lists of
// degree >= hubCut are not touched when hubCut > 0: the edge-parallel path
// scans them.
func (s *stagedLists) stage(g *WGraph, c []int32, vs []int32, hubCut int64) {
	offs, deg, adj := g.Offs, g.Deg, g.Adj
	for j, v := range vs {
		s.start[j] = offs[v]
		s.deg[j] = int64(deg[v])
	}
	nt := 0
	for j := range vs {
		d := s.deg[j]
		if hubCut > 0 && d >= hubCut {
			continue
		}
		start := s.start[j]
		for _, w := range adj[start : start+min(d, touchCap)] {
			s.tgt[nt] = w
			nt++
		}
	}
	for _, w := range s.tgt[:nt] {
		// An atomic load is never dropped as dead code, and it matches the
		// claim loop's accesses to c.
		atomic.LoadInt32(&c[w])
	}
}
