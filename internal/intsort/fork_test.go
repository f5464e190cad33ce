package intsort

import (
	"slices"
	"testing"
	"time"

	"parconn/internal/parallel"
	"parconn/internal/prand"
)

// forkWait bounds how long a fork test waits for a helper to join.
const forkWait = 10 * time.Second

// forked runs op on a private two-worker pool until a helper has joined one
// of its sections, and fails unless op forked every time without touching
// the default pool. Whether a woken helper arrives before the caller has
// claimed every block is up to the host's scheduler, and on a loaded host
// the caller can win many times running, so op is retried for up to
// forkWait; that it forked at all is counted exactly.
func forked(t *testing.T, name string, op func(p *parallel.Pool)) {
	t.Helper()
	p := parallel.NewPool(2)
	defer p.Close()
	def := parallel.Default()
	defJoins, defSections := def.Joins(), def.Sections()
	for start := time.Now(); p.Joins() == 0 && time.Since(start) < forkWait; {
		s0 := p.Sections()
		op(p)
		if p.Sections() == s0 {
			t.Fatalf("%s: no section forked at procs 2", name)
		}
	}
	if p.Joins() == 0 {
		t.Fatalf("%s: no helper joined a section in %v", name, forkWait)
	}
	if def.Joins() != defJoins || def.Sections() != defSections {
		t.Fatalf("%s: ran sections on the default pool", name)
	}
}

// TestSortForksOnCallerPool sorts at procs 2 on a private pool and compares
// with the one-block path element for element. The inputs' digits collide
// across blocks: every block holds the same few low digits, and one input
// has a single repeated key.
func TestSortForksOnCallerPool(t *testing.T) {
	const n = 1<<16 + 77
	src := prand.New(9)
	inputs := map[string][]uint64{
		"random": make([]uint64, n),
		"few":    make([]uint64, n),
		"equal":  make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		inputs["random"][i] = src.Uint64() & (1<<40 - 1)
		inputs["few"][i] = uint64(i%3)<<20 | uint64(i%5)
		inputs["equal"][i] = 0xabcdef
	}
	for name, in := range inputs {
		want := slices.Clone(in)
		var serial Sorter
		serial.Sort(parallel.Default(), 1, want, 40, nil)
		if !slices.IsSorted(want) {
			t.Fatalf("%s: serial sort unsorted", name)
		}
		var s Sorter
		scratch := make([]uint64, n)
		forked(t, "SortUint64In/"+name, func(p *parallel.Pool) {
			got := slices.Clone(in)
			s.Sort(p, 2, got, 40, scratch)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: forked sort differs from the serial sort", name)
			}
		})
	}
}

// TestOrderForksOnCallerPool checks the index-ordering pass at procs 2 on a
// private pool against a serial stable bucketing, bucket ends included.
func TestOrderForksOnCallerPool(t *testing.T) {
	const n, buckets = 1<<16 + 5, 300
	keys := make([]int32, n)
	src := prand.New(3)
	for i := range keys {
		keys[i] = int32(src.Int31n(buckets))
	}
	var want []int32
	wantEnds := make([]int32, buckets)
	for r := int32(0); r < buckets; r++ {
		for i, k := range keys {
			if k == r {
				want = append(want, int32(i))
			}
		}
		wantEnds[r] = int32(len(want))
	}
	var s Sorter
	forked(t, "Order", func(p *parallel.Pool) {
		order, ends := make([]int32, n), make([]int32, buckets)
		s.Order(p, 2, keys, buckets, order, ends)
		if !slices.Equal(order, want) || !slices.Equal(ends, wantEnds) {
			t.Fatal("forked Order differs from the serial stable bucketing")
		}
	})
}

// TestSerialSortAllocatesNothing checks that the one-block sort, the path
// of SortUint64In at procs 1 or on small inputs, counts on the stack: with
// full-length scratch it allocates nothing.
func TestSerialSortAllocatesNothing(t *testing.T) {
	a := make([]uint64, 1<<12)
	scratch := make([]uint64, len(a))
	src := prand.New(5)
	for procs := 1; procs <= 2; procs++ {
		allocs := testing.AllocsPerRun(5, func() {
			for i := range a {
				a[i] = src.Uint64() & (1<<24 - 1)
			}
			SortUint64In(procs, a, 24, scratch)
		})
		if allocs != 0 {
			t.Errorf("procs %d: SortUint64In on %d keys allocated %v times", procs, len(a), allocs)
		}
	}
}
