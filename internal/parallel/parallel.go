// Package parallel provides the fork-join primitives the rest of the library
// is written against: blocked parallel-for, prefix sums (scan), pack/filter,
// and a reduction.
//
// The paper's implementation uses Cilk Plus (cilk_for / cilk_spawn), where
// every loop runs on the one Cilk runtime; here a run's Pool plays that
// role. Loops are split into blocks of at least a grain-size of work, and
// blocks are claimed from an atomic counter (a simple work-stealing-free
// scheduler that is effective for the flat, regular loops used here). The
// pool's workers are long-lived parked goroutines (see pool.go) rather than
// spawned per call, so the steady-state cost of a parallel section is a
// channel wake per helper — and zero for sub-grain sections, which run
// serially on the caller.
//
// Every primitive has exactly one form, and it takes the pool to fork on and
// a worker count first (p *Pool, procs int, ...): the loops are Pool methods
// (Blocks, For, ForGrain, WorkerBlocks), the generic primitives are
// functions (Fill, Iota, MapReduce, Pack, PackIndex), and Scan and Packer
// are the scan and pack bodies, which a caller keeps across calls (the
// contraction machine does) to bind their block bodies and block scratch
// once. procs <= 0 means runtime.GOMAXPROCS(0), so callers bound
// parallelism per call rather than globally. Default is the shared pool an
// entry point resolves once when its caller supplies none.
//
// Three functions run on Default instead of taking a pool: Blocks,
// ExScanInto and PackInto. They are kept only for the benchmark program's
// layer probes (perfbench/trace.go); library code calls the pool forms.
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

// Blocks is Pool.Blocks on the default pool. It is kept for the benchmark
// program's layer probes (perfbench/trace.go); library code calls the pool
// method.
func Blocks(procs, n, grain int, fn func(lo, hi int)) {
	Default().Blocks(procs, n, grain, fn)
}

// Blocks runs fn over disjoint subranges [lo,hi) covering [0,n) using up to
// procs workers, with at least grain iterations per block (except the last).
// fn must be safe to call concurrently on disjoint ranges. If grain <= 0,
// the loop is treated as uniform work per iteration and UniformGrain is
// used (a few blocks per worker, at least DefaultGrain).
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
func (p *Pool) For(procs, n int, fn func(i int)) {
	p.ForGrain(procs, n, DefaultGrain, fn)
}

// ForGrain is For with an explicit grain size, for loops whose per-iteration
// work is far from uniform (e.g. one iteration per frontier vertex, where a
// vertex may have a large degree).
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
// concatenating afterwards. Chunks are nonempty whenever n >= used. fn is
// not invoked for worker indices beyond used: entries of a procs-sized
// buffer past used keep their zero value and callers must treat them as
// absent, not as fn-initialized.
func (p *Pool) WorkerBlocks(procs, n int, fn func(worker, lo, hi int)) int {
	used := min(Procs(procs), n)
	if used <= 1 {
		fn(0, 0, n)
		return 1
	}
	p.exec(&task{fnWorker: fn, n: n, nblocks: used}, used)
	return used
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

// Fill sets every element of dst to v in parallel on pool p.
func Fill[T any](p *Pool, procs int, dst []T, v T) {
	if serial(procs, len(dst)) {
		for i := range dst {
			dst[i] = v
		}
		return
	}
	p.Blocks(procs, len(dst), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = v
		}
	})
}

// Iota fills dst with 0, 1, 2, ... in parallel on pool p.
func Iota[T Number](p *Pool, procs int, dst []T) {
	if serial(procs, len(dst)) {
		for i := range dst {
			dst[i] = T(i)
		}
		return
	}
	p.Blocks(procs, len(dst), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = T(i)
		}
	})
}

// MapReduce sums f(i) over i in [0,n) on pool p.
func MapReduce[T Number](p *Pool, procs, n int, f func(i int) T) T {
	procs = Procs(procs)
	if procs == 1 || n < DefaultGrain {
		var total T
		for i := 0; i < n; i++ {
			total += f(i)
		}
		return total
	}
	partial := make([]T, procs)
	used := p.WorkerBlocks(procs, n, func(w, lo, hi int) {
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
