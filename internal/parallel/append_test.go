package parallel

import (
	"slices"
	"sync/atomic"
	"testing"
)

// TestAppenderFlushBoundaries pushes below, exactly at, and above the
// staging capacity from one appender and checks that the output is the
// input in push order with the cursor at the count — the serial-section
// guarantee the frontier producers rely on.
func TestAppenderFlushBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, StageCap - 1, StageCap, StageCap + 1, 2 * StageCap, 3*StageCap + 7} {
		dst := make([]int32, n)
		var cursor atomic.Int64
		a := NewAppender(dst, &cursor)
		for i := 0; i < n; i++ {
			a.Push(int32(i))
			// A full buffer is only flushed by the next push, so the cursor
			// trails the pushes by the staged count and never by more.
			if staged := int64(i+1) - cursor.Load(); staged < 1 || staged > StageCap {
				t.Fatalf("n=%d after %d pushes: %d staged, want 1..%d", n, i+1, staged, StageCap)
			}
		}
		a.Flush()
		if got := cursor.Load(); got != int64(n) {
			t.Fatalf("n=%d: cursor %d after flush", n, got)
		}
		for i, v := range dst {
			if v != int32(i) {
				t.Fatalf("n=%d: dst[%d]=%d, want push order", n, i, v)
			}
		}
		// A second flush with nothing staged must not reserve anything.
		a.Flush()
		if got := cursor.Load(); got != int64(n) {
			t.Fatalf("n=%d: empty flush moved the cursor to %d", n, got)
		}
	}
}

// TestAppenderAppendsAfterExistingSlots checks that reservations start at
// the cursor's current value, as when the pre-round pass appends new centers
// behind a frontier that is already partly filled.
func TestAppenderAppendsAfterExistingSlots(t *testing.T) {
	dst := []int32{7, 7, 7, 0, 0, 0}
	var cursor atomic.Int64
	cursor.Store(3)
	a := NewAppender(dst, &cursor)
	a.Push(1)
	a.Push(2)
	a.Push(3)
	a.Flush()
	if want := []int32{7, 7, 7, 1, 2, 3}; !slices.Equal(dst, want) {
		t.Fatalf("dst = %v, want %v", dst, want)
	}
}

func TestAppenderAllocatesNothing(t *testing.T) {
	dst := make([]int32, 3*StageCap)
	var cursor atomic.Int64
	allocs := testing.AllocsPerRun(100, func() {
		cursor.Store(0)
		a := NewAppender(dst, &cursor)
		for i := range dst {
			a.Push(int32(i))
		}
		a.Flush()
	})
	if allocs != 0 {
		t.Fatalf("appender allocated %.1f times per run, want 0", allocs)
	}
}

// TestAppenderConcurrentBlocks appends from every block of a parallel
// section (run it under -race) and checks that the output is a permutation
// of the input: no slot written twice, none lost. The grains cover blocks
// that stage fewer values than the capacity and blocks that flush several
// times.
func TestAppenderConcurrentBlocks(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	const n = 20000
	for _, procs := range []int{1, 2, 4, 8} {
		for _, grain := range []int{1, 37, StageCap, 5 * StageCap, n} {
			dst := make([]int32, n)
			var cursor atomic.Int64
			pool.Blocks(procs, n, grain, func(lo, hi int) {
				out := NewAppender(dst, &cursor)
				for i := lo; i < hi; i++ {
					out.Push(int32(i))
				}
				out.Flush()
			})
			if got := cursor.Load(); got != n {
				t.Fatalf("procs=%d grain=%d: cursor %d, want %d", procs, grain, got, n)
			}
			sorted := slices.Clone(dst)
			slices.Sort(sorted)
			for i, v := range sorted {
				if v != int32(i) {
					t.Fatalf("procs=%d grain=%d: output is not a permutation of 0..%d (sorted[%d]=%d)", procs, grain, n-1, i, v)
				}
			}
			if procs == 1 && !slices.Equal(dst, sorted) {
				t.Fatalf("grain=%d: a serial section did not append in push order", grain)
			}
		}
	}
}

// BenchmarkFrontierAppend compares the per-value fetch-and-add idiom with
// the staged appender on a 1M-value append from procs-wide blocks.
func BenchmarkFrontierAppend(b *testing.B) {
	const n = 1 << 20
	dst := make([]int32, n)
	procs := Procs(0)
	b.Run("per-value", func(b *testing.B) {
		var cursor atomic.Int64
		for i := 0; i < b.N; i++ {
			cursor.Store(0)
			Blocks(procs, n, BaseFrontierGrain, func(lo, hi int) {
				for v := lo; v < hi; v++ {
					dst[cursor.Add(1)-1] = int32(v)
				}
			})
		}
	})
	b.Run("staged", func(b *testing.B) {
		var cursor atomic.Int64
		for i := 0; i < b.N; i++ {
			cursor.Store(0)
			Blocks(procs, n, BaseFrontierGrain, func(lo, hi int) {
				out := NewAppender(dst, &cursor)
				for v := lo; v < hi; v++ {
					out.Push(int32(v))
				}
				out.Flush()
			})
		}
	})
}
