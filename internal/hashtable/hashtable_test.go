package hashtable

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"parconn/internal/parallel"
	"parconn/internal/prand"
)

func TestInsertAndContains(t *testing.T) {
	s := NewSet(parallel.Default(), 1, 100)
	for i := uint64(0); i < 100; i++ {
		if !s.Insert(i * 7) {
			t.Fatalf("Insert(%d) reported duplicate on first insert", i*7)
		}
	}
	if s.Len() != 100 {
		t.Fatalf("Len=%d want 100", s.Len())
	}
	for i := uint64(0); i < 100; i++ {
		if !s.Contains(i * 7) {
			t.Fatalf("Contains(%d) = false", i*7)
		}
		if s.Contains(i*7 + 1) {
			t.Fatalf("Contains(%d) = true for absent key", i*7+1)
		}
	}
}

func TestInsertDuplicates(t *testing.T) {
	s := NewSet(parallel.Default(), 1, 10)
	if !s.Insert(5) || s.Insert(5) || s.Insert(5) {
		t.Fatal("duplicate insert not detected")
	}
	if s.Len() != 1 {
		t.Fatalf("Len=%d want 1", s.Len())
	}
}

func TestInsertZeroKey(t *testing.T) {
	s := NewSet(parallel.Default(), 1, 4)
	if !s.Insert(0) {
		t.Fatal("Insert(0) failed")
	}
	if !s.Contains(0) {
		t.Fatal("Contains(0) false")
	}
}

func TestInsertEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewSet(parallel.Default(), 1, 4).Insert(Empty)
}

func TestElementsMatchInserted(t *testing.T) {
	s := NewSet(parallel.Default(), 1, 1000)
	want := make([]uint64, 0, 1000)
	src := prand.New(9)
	seen := map[uint64]bool{}
	for len(want) < 1000 {
		k := src.Uint64() >> 1
		if !seen[k] {
			seen[k] = true
			want = append(want, k)
			s.Insert(k)
		}
	}
	got := s.Elements(parallel.Default(), 2)
	if len(got) != len(want) {
		t.Fatalf("Elements len=%d want %d", len(got), len(want))
	}
	// ElementsInto gives the same table order, inline at one worker too.
	for _, procs := range []int{1, 2} {
		dst := make([]uint64, s.Len())
		if k := s.ElementsInto(parallel.Default(), procs, dst); k != len(got) || !slices.Equal(dst, got) {
			t.Fatalf("ElementsInto(%d) wrote %d keys, differing from Elements", procs, k)
		}
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element mismatch at %d", i)
		}
	}
}

func TestConcurrentInsertExactlyOnce(t *testing.T) {
	// Many goroutines insert overlapping key ranges; each key must be
	// reported newly-inserted exactly once and the final set must be exact.
	const keys = 20000
	const workers = 8
	s := NewSet(parallel.Default(), 0, keys)
	newCount := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := 0
			// Each worker inserts all keys, in a different order.
			for i := 0; i < keys; i++ {
				k := uint64((i*(w+3))%keys) * 1315423911
				if s.Insert(k) {
					c++
				}
			}
			newCount[w] = c
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range newCount {
		total += c
	}
	if total != keys {
		t.Fatalf("total new inserts = %d, want %d", total, keys)
	}
	if s.Len() != keys {
		t.Fatalf("Len=%d want %d", s.Len(), keys)
	}
	if len(s.Elements(parallel.Default(), 0)) != keys {
		t.Fatalf("Elements len=%d want %d", len(s.Elements(parallel.Default(), 0)), keys)
	}
}

func TestNearCapacity(t *testing.T) {
	// Fill to the declared capacity; must not panic and must keep all keys.
	const n = 5000
	s := NewSet(parallel.Default(), 1, n)
	for i := uint64(1); i <= n; i++ {
		s.Insert(i * 2654435761)
	}
	if s.Len() != n {
		t.Fatalf("Len=%d want %d", s.Len(), n)
	}
}

func TestTinyCapacity(t *testing.T) {
	s := NewSet(parallel.Default(), 1, 0)
	s.Insert(1)
	s.Insert(2)
	if s.Len() != 2 {
		t.Fatalf("Len=%d", s.Len())
	}
}

func TestContainsEmptyKeyFalse(t *testing.T) {
	s := NewSet(parallel.Default(), 1, 4)
	if s.Contains(Empty) {
		t.Fatal("Contains(Empty) = true")
	}
}

func BenchmarkInsert1M(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSet(parallel.Default(), 0, 1<<20)
		for k := uint64(0); k < 1<<20; k++ {
			s.Insert(k*0x9e3779b97f4a7c15 + 1)
		}
	}
}
