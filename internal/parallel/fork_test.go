package parallel

import (
	"slices"
	"testing"
	"time"
)

// forkN is large enough that every pack and scan body cuts it into several
// blocks (n >= 2*DefaultGrain) and that a parked helper wakes before the
// caller has claimed every block.
const forkN = 1 << 18

// forkWait bounds how long a fork test waits for a helper to join.
const forkWait = 10 * time.Second

// forks runs op on a private two-worker pool until a helper has joined one
// of its sections, and fails unless op forked every time without touching
// the default pool. Whether a woken helper arrives before the caller has
// claimed every block is up to the host's scheduler, and on a loaded host
// the caller can win many times running, so op is retried for up to
// forkWait; that it forked at all is counted exactly.
func forks(t *testing.T, name string, op func(p *Pool)) {
	t.Helper()
	p := NewPool(2)
	defer p.Close()
	def := Default()
	defJoins, defSections := def.Joins(), def.Sections()
	for start := time.Now(); p.Joins() == 0 && time.Since(start) < forkWait; {
		s0 := p.Sections()
		op(p)
		if p.Sections() == s0 {
			t.Fatalf("%s: no section forked at procs 2, n=%d", name, forkN)
		}
	}
	if p.Joins() == 0 {
		t.Fatalf("%s: no helper joined a section in %v", name, forkWait)
	}
	if def.Joins() != defJoins || def.Sections() != defSections {
		t.Fatalf("%s: ran sections on the default pool", name)
	}
}

func forkInput() []int64 {
	xs := make([]int64, forkN)
	for i := range xs {
		xs[i] = int64(i%11) - 3
	}
	return xs
}

func TestPrimitivesForkOnCallerPool(t *testing.T) {
	xs := forkInput()
	keep := func(i int) bool { return xs[i] > 2 || i%97 == 0 }
	var want []int64
	for i, v := range xs {
		if keep(i) {
			want = append(want, v)
		}
	}

	forks(t, "Pack", func(p *Pool) {
		if got := Pack(p, 2, xs, keep); !slices.Equal(got, want) {
			t.Fatal("Pack differs from the serial pack")
		}
	})
	forks(t, "PackInto", func(p *Pool) {
		var k Packer[int64]
		dst := make([]int64, len(want))
		if c := k.Into(p, 2, dst, xs, keep); c != len(want) || !slices.Equal(dst, want) {
			t.Fatalf("PackInto wrote %d elements, differing from the serial pack", c)
		}
	})
	forks(t, "PackIndex", func(p *Pool) {
		got := PackIndex(p, 2, forkN, keep)
		var wantIdx []int32
		for i := 0; i < forkN; i++ {
			if keep(i) {
				wantIdx = append(wantIdx, int32(i))
			}
		}
		if !slices.Equal(got, wantIdx) {
			t.Fatal("PackIndex differs from the serial pack")
		}
	})

	ex := make([]int64, forkN)
	exTotal := scanSerial(ex, xs)
	forks(t, "ExScanInto", func(p *Pool) {
		var s Scan[int64]
		dst := make([]int64, forkN)
		if total := s.Exclusive(p, 2, dst, xs); total != exTotal || !slices.Equal(dst, ex) {
			t.Fatal("ExScanInto differs from the serial scan")
		}
	})
}

// TestWarmBodiesAllocateOnlySections checks that a kept Packer and Scan
// allocate nothing on a warm forked call beyond each section's fixed cost.
func TestWarmBodiesAllocateOnlySections(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime allocates")
	}
	p := NewPool(2)
	defer p.Close()
	xs := forkInput()
	dst := make([]int64, forkN)
	keep := func(i int) bool { return xs[i] > 0 }
	var k Packer[int64]
	var s Scan[int64]
	run := func() {
		k.Into(p, 2, dst, xs, keep)
		s.Exclusive(p, 2, dst, xs)
	}
	run()
	s0 := p.Sections()
	allocs := testing.AllocsPerRun(10, run)
	sections := float64(p.Sections()-s0) / 11 // AllocsPerRun adds a warm-up call
	if net := allocs - sections*SectionAllocs; net > 0 {
		t.Fatalf("warm pack+scan: %.1f allocs beyond %.1f sections", net, sections)
	}
}
