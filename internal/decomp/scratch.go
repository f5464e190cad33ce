package decomp

// Scratch caches the per-variant "machines" — structs whose parallel loop
// bodies (the shared frontier's pre pass and round step, and each variant's
// own passes) are closures bound once at construction and re-aimed at each
// call's data through machine fields. Per-round closure literals were the
// dominant steady-state allocation in the BFS loop (Go's escape analysis is
// path-insensitive: any closure handed to the scheduler heap-allocates at
// every creation, once per round per phase), so the machines hoist them to
// one-time cost.
//
// A Scratch is exclusively owned: the connectivity recursion threads one
// through all of its levels via Options.Scratch, and concurrent Decompose
// calls must each bring their own (or leave Options.Scratch nil for a
// transient one).
type Scratch struct {
	arb    *arbMachine
	hybrid *hybridMachine
	min    *minMachine
	copier wgraphCopy
}

func (s *Scratch) arbM() *arbMachine {
	if s.arb == nil {
		s.arb = newArbMachine()
	}
	return s.arb
}

func (s *Scratch) hybridM() *hybridMachine {
	if s.hybrid == nil {
		s.hybrid = newHybridMachine()
	}
	return s.hybrid
}

func (s *Scratch) minM() *minMachine {
	if s.min == nil {
		s.min = newMinMachine()
	}
	return s.min
}
