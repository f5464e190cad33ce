package intsort

import (
	"sort"
	"testing"
	"testing/quick"

	"parconn/internal/parallel"
	"parconn/internal/prand"
)

var procsCases = []int{1, 4}

func TestBits(t *testing.T) {
	cases := []struct {
		max  uint64
		want int
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9}, {1 << 31, 32}, {^uint64(0), 64},
	}
	for _, c := range cases {
		if got := Bits(c.max); got != c.want {
			t.Fatalf("Bits(%d)=%d want %d", c.max, got, c.want)
		}
	}
}

func sortedCopy(a []uint64) []uint64 {
	cp := append([]uint64(nil), a...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return cp
}

func TestSortUint64MatchesStdlib(t *testing.T) {
	src := prand.New(1)
	for _, p := range procsCases {
		for _, n := range []int{0, 1, 2, 100, 1 << 14, 50000} {
			a := make([]uint64, n)
			for i := range a {
				a[i] = src.Uint64()
			}
			want := sortedCopy(a)
			new(Sorter).Sort(parallel.Default(), p, a, 64, nil)
			for i := range a {
				if a[i] != want[i] {
					t.Fatalf("p=%d n=%d: a[%d]=%d want %d", p, n, i, a[i], want[i])
				}
			}
		}
	}
}

func TestSortUint64LimitedBits(t *testing.T) {
	src := prand.New(2)
	for _, bits := range []int{1, 7, 8, 9, 16, 20, 32, 40} {
		for _, p := range procsCases {
			n := 30000
			mask := uint64(1)<<uint(bits) - 1
			a := make([]uint64, n)
			for i := range a {
				a[i] = src.Uint64() & mask
			}
			want := sortedCopy(a)
			new(Sorter).Sort(parallel.Default(), p, a, bits, nil)
			for i := range a {
				if a[i] != want[i] {
					t.Fatalf("bits=%d p=%d: mismatch at %d", bits, p, i)
				}
			}
		}
	}
}

func TestSortUint64AlreadySortedAndReverse(t *testing.T) {
	n := 20000
	a := make([]uint64, n)
	for i := range a {
		a[i] = uint64(i)
	}
	new(Sorter).Sort(parallel.Default(), 2, a, 0, nil)
	for i := range a {
		if a[i] != uint64(i) {
			t.Fatalf("sorted input perturbed at %d", i)
		}
	}
	for i := range a {
		a[i] = uint64(n - i)
	}
	new(Sorter).Sort(parallel.Default(), 2, a, 0, nil)
	for i := 1; i < n; i++ {
		if a[i] < a[i-1] {
			t.Fatalf("reverse input not sorted at %d", i)
		}
	}
}

func TestSortUint64AllEqual(t *testing.T) {
	a := make([]uint64, 40000)
	for i := range a {
		a[i] = 42
	}
	new(Sorter).Sort(parallel.Default(), 4, a, 16, nil)
	for i, v := range a {
		if v != 42 {
			t.Fatalf("a[%d]=%d", i, v)
		}
	}
}

func TestSortUint64Property(t *testing.T) {
	f := func(a []uint64) bool {
		want := sortedCopy(a)
		new(Sorter).Sort(parallel.Default(), 4, a, 64, nil)
		for i := range a {
			if a[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUniqueSorted(t *testing.T) {
	for _, p := range procsCases {
		a := []uint64{1, 1, 2, 3, 3, 3, 7, 9, 9}
		got := UniqueSorted(parallel.Default(), p, a)
		want := []uint64{1, 2, 3, 7, 9}
		if len(got) != len(want) {
			t.Fatalf("p=%d: len=%d want %d (%v)", p, len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("p=%d: got[%d]=%d want %d", p, i, got[i], want[i])
			}
		}
	}
}

func TestUniqueSortedEdge(t *testing.T) {
	if got := UniqueSorted(parallel.Default(), 1, nil); len(got) != 0 {
		t.Fatal("nil input")
	}
	if got := UniqueSorted(parallel.Default(), 1, []uint64{5}); len(got) != 1 || got[0] != 5 {
		t.Fatal("single input")
	}
	big := make([]uint64, 30000)
	got := UniqueSorted(parallel.Default(), 4, big)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("all-equal large input: %d", len(got))
	}
}

func TestSortStability(t *testing.T) {
	// Pack (key, original index) so stability is observable: equal keys must
	// retain index order. Radix LSD is stable by construction.
	src := prand.New(4)
	n := 40000
	a := make([]uint64, n)
	for i := range a {
		key := uint64(src.Int31n(64)) // few distinct keys, many ties
		a[i] = key<<32 | uint64(i)
	}
	// Sort by the full word: since the low half is the unique index, order
	// within equal keys must be ascending index — same as stable sort.
	new(Sorter).Sort(parallel.Default(), 4, a, 64, nil)
	for i := 1; i < n; i++ {
		if a[i-1] >= a[i] {
			t.Fatalf("not strictly increasing at %d", i)
		}
	}
	// Now sort only the key bits via a masked copy and verify equal-key runs
	// keep increasing indices.
	b := make([]uint64, n)
	for i := range b {
		key := uint64(src.Int31n(16))
		b[i] = key<<32 | uint64(i)
	}
	keys := make([]uint64, n)
	copy(keys, b)
	new(Sorter).Sort(parallel.Default(), 4, keys, 64, nil) // full sort ok for stability check as above
	for i := 1; i < n; i++ {
		if keys[i-1]>>32 == keys[i]>>32 && uint32(keys[i-1]) >= uint32(keys[i]) {
			t.Fatalf("stability violated at %d", i)
		}
	}
}

func BenchmarkSortUint64_1M(b *testing.B) {
	src := prand.New(5)
	orig := make([]uint64, 1<<20)
	for i := range orig {
		orig[i] = src.Uint64() & (1<<40 - 1)
	}
	a := make([]uint64, len(orig))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(a, orig)
		b.StartTimer()
		new(Sorter).Sort(parallel.Default(), 0, a, 40, nil)
	}
}
