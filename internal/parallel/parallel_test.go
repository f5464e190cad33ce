package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

// procsCases exercises the serial path, an intermediate width, and the
// oversubscribed path on any host.
var procsCases = []int{1, 2, 8}

func TestProcs(t *testing.T) {
	if Procs(0) < 1 {
		t.Fatal("Procs(0) < 1")
	}
	if Procs(-3) < 1 {
		t.Fatal("Procs(-3) < 1")
	}
	if Procs(5) != 5 {
		t.Fatal("Procs(5) != 5")
	}
}

func TestForCoversAllIndicesOnce(t *testing.T) {
	for _, p := range procsCases {
		for _, n := range []int{0, 1, 100, 10000} {
			hits := make([]int32, n)
			Default().For(p, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("p=%d n=%d: index %d hit %d times", p, n, i, h)
				}
			}
		}
	}
}

func TestBlocksPartition(t *testing.T) {
	for _, p := range procsCases {
		for _, grain := range []int{0, 1, 7, 5000} {
			n := 12345
			hits := make([]int32, n)
			Blocks(p, n, grain, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("bad block [%d,%d)", lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("p=%d grain=%d: index %d hit %d times", p, grain, i, h)
				}
			}
		}
	}
}

func TestBlocksEmptyRange(t *testing.T) {
	called := false
	Blocks(4, 0, 0, func(lo, hi int) { called = true })
	if called {
		t.Fatal("Blocks called fn for n=0")
	}
}

func TestWorkerBlocksEachWorkerOnce(t *testing.T) {
	for _, p := range procsCases {
		for _, n := range []int{0, 1, 5, 1000} {
			seen := make([]int32, p)
			hits := make([]int32, n)
			used := Default().WorkerBlocks(p, n, func(w, lo, hi int) {
				atomic.AddInt32(&seen[w], 1)
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			want := min(p, n)
			if want < 1 {
				want = 1
			}
			if used != want {
				t.Fatalf("p=%d n=%d: used=%d want %d", p, n, used, want)
			}
			// Worker indices are dense in [0,used) and each fires exactly
			// once; indices beyond used are never invoked (the old contract
			// called them with an empty range).
			for w, s := range seen {
				wantCalls := int32(0)
				if w < used {
					wantCalls = 1
				}
				if s != wantCalls {
					t.Fatalf("p=%d n=%d: worker %d called %d times, want %d", p, n, w, s, wantCalls)
				}
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("p=%d n=%d: index %d covered %d times", p, n, i, h)
				}
			}
		}
	}
}

func TestFillIotaCopy(t *testing.T) {
	for _, p := range procsCases {
		xs := make([]int64, 5000)
		Fill(Default(), p, xs, 7)
		for i, v := range xs {
			if v != 7 {
				t.Fatalf("Fill: xs[%d]=%d", i, v)
			}
		}
		Iota(Default(), p, xs)
		for i, v := range xs {
			if v != int64(i) {
				t.Fatalf("Iota: xs[%d]=%d", i, v)
			}
		}
	}
}

func TestSumMatchesSerial(t *testing.T) {
	xs := make([]int64, 100001)
	var want int64
	for i := range xs {
		xs[i] = int64(i%97 - 48)
		want += xs[i]
	}
	for _, p := range procsCases {
		if got := MapReduce(Default(), p, len(xs), func(i int) int64 { return xs[i] }); got != want {
			t.Fatalf("p=%d: sum=%d want %d", p, got, want)
		}
	}
}

func TestCount(t *testing.T) {
	for _, p := range procsCases {
		got := MapReduce(Default(), p, 100000, func(i int) int {
			if i%3 == 0 {
				return 1
			}
			return 0
		})
		if got != 33334 {
			t.Fatalf("p=%d: count=%d want 33334", p, got)
		}
	}
}

func TestExScanMatchesSerial(t *testing.T) {
	for _, p := range procsCases {
		for _, n := range []int{0, 1, 2, 100, 9999, 100000} {
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = int64(i%13 - 6)
			}
			want := make([]int64, n)
			wantTotal := scanSerial(want, xs)
			var s Scan[int64]
			gotTotal := s.Exclusive(Default(), p, xs, xs)
			if gotTotal != wantTotal {
				t.Fatalf("p=%d n=%d: total=%d want %d", p, n, gotTotal, wantTotal)
			}
			for i := range xs {
				if xs[i] != want[i] {
					t.Fatalf("p=%d n=%d: xs[%d]=%d want %d", p, n, i, xs[i], want[i])
				}
			}
		}
	}
}

func TestExScanIntoSeparateDst(t *testing.T) {
	src := []int32{3, 1, 4, 1, 5}
	dst := make([]int32, 5)
	total := ExScanInto(2, dst, src)
	want := []int32{0, 3, 4, 8, 9}
	if total != 14 {
		t.Fatalf("total=%d", total)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst[%d]=%d want %d", i, dst[i], want[i])
		}
	}
	// src must be untouched.
	for i, v := range []int32{3, 1, 4, 1, 5} {
		if src[i] != v {
			t.Fatalf("src modified at %d", i)
		}
	}
}

func TestExScanProperty(t *testing.T) {
	// Property: for random inputs, parallel scan equals the sequential one.
	f := func(xs []int64) bool {
		cp := make([]int64, len(xs))
		copy(cp, xs)
		want := make([]int64, len(xs))
		wantTotal := scanSerial(want, xs)
		var s Scan[int64]
		gotTotal := s.Exclusive(Default(), 4, cp, cp)
		if gotTotal != wantTotal {
			return false
		}
		for i := range cp {
			if cp[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPackMatchesSerial(t *testing.T) {
	for _, p := range procsCases {
		for _, n := range []int{0, 1, 100, 60000} {
			xs := make([]int32, n)
			for i := range xs {
				xs[i] = int32(i)
			}
			keep := func(i int) bool { return i%7 == 2 }
			got := Pack(Default(), p, xs, keep)
			want := make([]int32, 0)
			for i := 0; i < n; i++ {
				if keep(i) {
					want = append(want, xs[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("p=%d n=%d: len=%d want %d", p, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("p=%d n=%d: got[%d]=%d want %d", p, n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestPackIndexMatchesSerial(t *testing.T) {
	for _, p := range procsCases {
		n := 50000
		keep := func(i int) bool { return i%13 == 0 || i%17 == 3 }
		got := PackIndex(Default(), p, n, keep)
		want := make([]int32, 0)
		for i := 0; i < n; i++ {
			if keep(i) {
				want = append(want, int32(i))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("p=%d: len=%d want %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("p=%d: got[%d]=%d want %d", p, i, got[i], want[i])
			}
		}
	}
}

func TestPackKeepNothingAndEverything(t *testing.T) {
	xs := []int{1, 2, 3}
	if got := Pack(Default(), 2, xs, func(int) bool { return false }); len(got) != 0 {
		t.Fatalf("keep-nothing returned %v", got)
	}
	got := Pack(Default(), 2, xs, func(int) bool { return true })
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("keep-everything returned %v", got)
	}
}

func TestMapReduceFloat(t *testing.T) {
	got := MapReduce(Default(), 3, 1000, func(i int) float64 { return 0.5 })
	if got != 500 {
		t.Fatalf("MapReduce float = %v", got)
	}
}

func BenchmarkExScan1M(b *testing.B) {
	xs := make([]int64, 1<<20)
	for i := range xs {
		xs[i] = 1
	}
	var s Scan[int64]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Exclusive(Default(), 0, xs, xs)
		b.StopTimer()
		Fill(Default(), 0, xs, 1)
		b.StartTimer()
	}
}

func BenchmarkFor1M(b *testing.B) {
	xs := make([]int64, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Blocks(0, len(xs), 0, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				xs[j]++
			}
		})
	}
}

func TestForGrain(t *testing.T) {
	for _, p := range procsCases {
		hits := make([]int32, 3000)
		Default().ForGrain(p, len(hits), 7, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("p=%d: index %d hit %d times", p, i, h)
			}
		}
	}
}
