// Package sharedwrite is a parconnvet test fixture: every line carrying a
// `want` comment must be flagged by the sharedwrite check, every other line
// must stay clean.
package sharedwrite

import (
	"sync/atomic"

	"parconn/internal/parallel"
)

// pool stands for the run's worker pool: the fixture is type-checked and
// analyzed, never run.
var pool *parallel.Pool

func racySum(xs []int) int {
	sum := 0
	pool.For(0, len(xs), func(i int) {
		sum += xs[i] // want "captured sum"
	})
	return sum
}

func okIndexedByLoopVar(xs, out []int) {
	pool.For(0, len(xs), func(i int) {
		out[i] = xs[i] * 2 // ok: slot owned via the loop variable
	})
}

func racyFixedIndex(out []int) {
	pool.Blocks(0, len(out), 0, func(lo, hi int) {
		out[0] = lo // want "captured out"
	})
}

func okDerivedIndex(out []int32) {
	pool.Blocks(0, len(out), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := int32(i)
			out[v] = v // ok: index derived from a closure-local
		}
	})
}

func okAtomicReservedSlot(out []int64) {
	var cursor atomic.Int64
	pool.For(0, len(out), func(i int) {
		out[cursor.Add(1)-1] = int64(i) // ok: atomically reserved slot
	})
}

func okWorkerSlot(procs, n int) []int {
	acc := make([]int, parallel.Procs(procs))
	pool.WorkerBlocks(procs, n, func(worker, lo, hi int) {
		acc[worker] = hi - lo // ok: one slot per worker
	})
	return acc
}

func racyTwoSections() int {
	x := 0
	pool.For(0, 2, func(i int) {
		x = i // want "captured x"
	})
	pool.Blocks(0, 2, 0, func(lo, hi int) {
		x = lo // want "captured x"
	})
	return x
}

func racyPointer(p *int) {
	pool.For(0, 8, func(i int) {
		*p = i // want "captured p"
	})
}

func racyCopy(dst, src []int) {
	pool.Blocks(0, len(src), 0, func(lo, hi int) {
		copy(dst, src) // want "captured dst"
	})
}

func okCopyBlocked(dst, src []int) {
	pool.Blocks(0, len(src), 0, func(lo, hi int) {
		copy(dst[lo:hi], src[lo:hi]) // ok: disjoint worker ranges
	})
}

func okCopyWorkerOffset(dst []int, offsets []int, bufs [][]int) {
	pool.For(0, len(bufs), func(i int) {
		copy(dst[offsets[i]:], bufs[i]) // ok: offset indexed by the worker's own i
	})
}

func okCopyReservedBatch(dst []int32, src []int32) {
	var cursor atomic.Int64
	pool.Blocks(0, len(src), 0, func(lo, hi int) {
		var buf [64]int32
		k := int64(copy(buf[:], src[lo:hi]))
		end := cursor.Add(k)
		copy(dst[end-k:end], buf[:k]) // ok: one atomic add reserved the range
	})
}

func okCopyReservedInline(dst []int32, src []int32) {
	var cursor atomic.Int64
	pool.Blocks(0, len(src), 0, func(lo, hi int) {
		copy(dst[cursor.Add(int64(hi-lo))-int64(hi-lo):], src[lo:hi]) // ok: reserved in place
	})
}

func racyCopyBatchLength(dst []int32, src []int32) {
	pool.Blocks(0, len(src), 0, func(lo, hi int) {
		var buf [64]int32
		k := copy(buf[:], src[lo:hi])
		copy(dst[k:], buf[:k]) // want "captured dst"
	})
}

func racyCopyLoadedOffset(dst []int32, src []int32) {
	var cursor atomic.Int64
	pool.Blocks(0, len(src), 0, func(lo, hi int) {
		off := cursor.Load()        // a load reserves nothing
		copy(dst[off:], src[lo:hi]) // want "captured dst"
	})
}

func racyCopyNoLowBound(dst []int32, src []int32) {
	pool.Blocks(0, len(src), 0, func(lo, hi int) {
		copy(dst[:hi-lo], src[lo:hi]) // want "captured dst"
	})
}

func racyIncrement(counts []int) {
	pool.ForGrain(0, 100, 10, func(i int) {
		counts[len(counts)-1]++ // want "captured counts"
	})
}
