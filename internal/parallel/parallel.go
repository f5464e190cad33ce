// Package parallel provides the fork-join primitives the rest of the library
// is written against: blocked parallel-for, prefix sums (scan), pack/filter,
// and reductions.
//
// The paper's implementation uses Cilk Plus (cilk_for / cilk_spawn); this
// package plays the same role on goroutines. Loops are split into blocks of
// at least a grain-size of work, and blocks are claimed from an atomic
// counter (a simple work-stealing-free scheduler that is effective for the
// flat, regular loops used here). Workers come from a long-lived Pool of
// parked goroutines (see pool.go) rather than being spawned per call, so
// the steady-state cost of a parallel section is a channel wake per helper
// — and zero for sub-grain sections, which run serially on the caller.
// Every entry point takes an explicit worker count so library callers can
// bound parallelism per call rather than globally; procs <= 0 means
// runtime.GOMAXPROCS(0). The package-level functions share one default
// pool; callers that want scheduling isolation construct their own Pool and
// use the equivalent methods.
//
// Scan and pack each have one body, Scan and Packer, which take the pool to
// fork on. They cut their input into a few blocks per worker (blockCount)
// and dispatch those blocks one per claim, so a two-worker pool runs them
// on both workers; ExScan, ExScanInto, InScan, Pack and PackInto are thin
// wrappers running them on the default pool, and PackIndex shares Packer's
// flag pass but writes indices rather than elements. A caller that keeps a
// Scan or Packer across calls (the contraction machine does) pays for its
// bound bodies and block scratch once.
package parallel

import (
	"runtime"
)

// DefaultGrain is the minimum number of loop iterations a worker claims at a
// time when the caller does not specify a grain. It is chosen so that the
// per-block scheduling overhead (one atomic add + closure call) is amortized
// over enough work for the fine-grained loops in this library.
const DefaultGrain = 2048

// Procs resolves a worker-count option: values <= 0 mean "use all available
// parallelism" (runtime.GOMAXPROCS(0)).
func Procs(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// Blocks runs fn over disjoint subranges [lo,hi) covering [0,n) using up to
// procs workers, with at least grain iterations per block (except the last).
// fn must be safe to call concurrently on disjoint ranges. If grain <= 0,
// the loop is treated as uniform work per iteration and UniformGrain is
// used (a few blocks per worker, at least DefaultGrain).
func Blocks(procs, n, grain int, fn func(lo, hi int)) {
	Default().Blocks(procs, n, grain, fn)
}

// Blocks is the pool-scoped equivalent of the package-level Blocks.
func (p *Pool) Blocks(procs, n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	procs = Procs(procs)
	if grain <= 0 {
		grain = UniformGrain(procs, n)
	}
	nblocks := (n + grain - 1) / grain
	if procs == 1 || nblocks == 1 {
		fn(0, n)
		return
	}
	if procs > nblocks {
		procs = nblocks
	}
	//parconn:allow hotalloc per-section task descriptor; part of the scheduler's budgeted steady-state allocations
	p.exec(&task{fnBlock: fn, n: n, grain: grain, nblocks: nblocks}, procs)
}

// For runs fn(i) for every i in [0,n) in parallel with the default grain.
func For(procs, n int, fn func(i int)) {
	Default().For(procs, n, fn)
}

// For is the pool-scoped equivalent of the package-level For.
func (p *Pool) For(procs, n int, fn func(i int)) {
	p.ForGrain(procs, n, DefaultGrain, fn)
}

// ForGrain is For with an explicit grain size, for loops whose per-iteration
// work is far from uniform (e.g. one iteration per frontier vertex, where a
// vertex may have a large degree).
func ForGrain(procs, n, grain int, fn func(i int)) {
	Default().ForGrain(procs, n, grain, fn)
}

// ForGrain is the pool-scoped equivalent of the package-level ForGrain.
func (p *Pool) ForGrain(procs, n, grain int, fn func(i int)) {
	if n <= 0 {
		return
	}
	procs = Procs(procs)
	if grain <= 0 {
		grain = UniformGrain(procs, n)
	}
	nblocks := (n + grain - 1) / grain
	if procs == 1 || nblocks == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if procs > nblocks {
		procs = nblocks
	}
	p.exec(&task{fnIdx: fn, n: n, grain: grain, nblocks: nblocks}, procs)
}

// WorkerBlocks partitions [0,n) into used = max(1, min(procs, n)) contiguous
// chunks and runs fn(worker, lo, hi) exactly once for each worker index in
// [0, used), returning used.
//
// Per-worker-buffer contract: worker indices are dense in [0, used), no
// index is ever repeated, and no two concurrent invocations of fn share an
// index — so callers may maintain per-worker buffers sized by procs (or by
// the returned used) and index them by worker without synchronization,
// concatenating afterwards. Chunks are nonempty whenever n >= used. Unlike
// the pre-pool implementation, fn is NOT invoked with an empty [n, n) range
// for worker indices beyond used: entries of a procs-sized buffer past used
// keep their zero value and callers must treat them as absent, not as
// fn-initialized.
func WorkerBlocks(procs, n int, fn func(worker, lo, hi int)) int {
	return Default().WorkerBlocks(procs, n, fn)
}

// WorkerBlocks is the pool-scoped equivalent of the package-level
// WorkerBlocks.
func (p *Pool) WorkerBlocks(procs, n int, fn func(worker, lo, hi int)) int {
	used := min(Procs(procs), n)
	if used <= 1 {
		fn(0, 0, n)
		return 1
	}
	p.exec(&task{fnWorker: fn, n: n, nblocks: used}, used)
	return used
}

// Do runs every function in fns, in parallel when procs > 1. It is the
// cilk_spawn analogue for a small constant number of independent tasks.
func Do(procs int, fns ...func()) {
	Default().Do(procs, fns...)
}

// Do is the pool-scoped equivalent of the package-level Do.
func (p *Pool) Do(procs int, fns ...func()) {
	procs = Procs(procs)
	if procs == 1 || len(fns) == 1 {
		for _, fn := range fns {
			fn()
		}
		return
	}
	if procs > len(fns) {
		procs = len(fns)
	}
	p.exec(&task{fnList: fns}, procs)
}

// Number is the constraint for the arithmetic primitives in this package.
type Number interface {
	~int | ~int32 | ~int64 | ~uint32 | ~uint64 | ~float64
}

// serial reports whether an n-element loop should run serially on the
// caller: either no extra workers were requested or the loop is under one
// grain of work. Helpers use it to skip closure construction entirely on
// the serial path (the closures would escape into the pool and cost one
// heap allocation per call otherwise).
func serial(procs, n int) bool {
	return n < DefaultGrain || Procs(procs) == 1
}

// Fill sets every element of dst to v in parallel.
func Fill[T any](procs int, dst []T, v T) {
	if serial(procs, len(dst)) {
		for i := range dst {
			dst[i] = v
		}
		return
	}
	Blocks(procs, len(dst), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = v
		}
	})
}

// Iota fills dst with 0, 1, 2, ... in parallel.
func Iota[T Number](procs int, dst []T) {
	if serial(procs, len(dst)) {
		for i := range dst {
			dst[i] = T(i)
		}
		return
	}
	Blocks(procs, len(dst), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = T(i)
		}
	})
}

// Copy copies src into dst in parallel. The slices must have equal length.
func Copy[T any](procs int, dst, src []T) {
	if len(dst) != len(src) {
		panic("parallel: Copy length mismatch")
	}
	if serial(procs, len(src)) {
		copy(dst, src)
		return
	}
	Blocks(procs, len(src), 0, func(lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}

// Sum returns the sum of xs.
func Sum[T Number](procs int, xs []T) T {
	if serial(procs, len(xs)) {
		var total T
		for _, v := range xs {
			total += v
		}
		return total
	}
	return MapReduce(procs, len(xs), func(i int) T { return xs[i] })
}

// MapReduce sums f(i) over i in [0,n).
func MapReduce[T Number](procs, n int, f func(i int) T) T {
	procs = Procs(procs)
	if procs == 1 || n < DefaultGrain {
		var total T
		for i := 0; i < n; i++ {
			total += f(i)
		}
		return total
	}
	partial := make([]T, procs)
	used := WorkerBlocks(procs, n, func(w, lo, hi int) {
		var s T
		for i := lo; i < hi; i++ {
			s += f(i)
		}
		partial[w] = s
	})
	var total T
	for _, s := range partial[:used] {
		total += s
	}
	return total
}

// Max returns the maximum element of xs. It panics on an empty slice.
func Max[T Number](procs int, xs []T) T {
	if len(xs) == 0 {
		panic("parallel: Max of empty slice")
	}
	procs = Procs(procs)
	if procs == 1 || len(xs) < DefaultGrain {
		m := xs[0]
		for _, v := range xs[1:] {
			if v > m {
				m = v
			}
		}
		return m
	}
	partial := make([]T, procs)
	// len(xs) >= DefaultGrain >= procs here, so every worker chunk is
	// nonempty and partial[:used] is fully initialized.
	used := WorkerBlocks(procs, len(xs), func(w, lo, hi int) {
		m := xs[lo]
		for _, v := range xs[lo+1 : hi] {
			if v > m {
				m = v
			}
		}
		partial[w] = m
	})
	m := partial[0]
	for _, v := range partial[1:used] {
		if v > m {
			m = v
		}
	}
	return m
}

// Count returns the number of i in [0,n) for which pred(i) is true.
func Count(procs, n int, pred func(i int) bool) int {
	if Procs(procs) == 1 || n < DefaultGrain {
		c := 0
		for i := 0; i < n; i++ {
			if pred(i) {
				c++
			}
		}
		return c
	}
	return MapReduce(procs, n, func(i int) int {
		if pred(i) {
			return 1
		}
		return 0
	})
}
