// Package hashtable implements a phase-concurrent hash set in the style of
// Shun and Blelloch (SPAA'14): during an insert phase any number of workers
// may insert concurrently with CAS-claimed linear-probe slots; reads of the
// element set happen in a separate phase after all inserts complete.
//
// The connectivity algorithm uses it to remove duplicate edges between
// contracted components: each remaining inter-component edge (u, v) is packed
// into a uint64 and inserted; the surviving set is the deduplicated edge
// list.
package hashtable

import (
	"sync/atomic"

	"parconn/internal/parallel"
	"parconn/internal/prand"
)

// Empty is the reserved slot value; it may not be inserted as a key.
const Empty = ^uint64(0)

// Set is a fixed-capacity concurrent-insert hash set of uint64 keys. It
// must not be copied after first use: its fill and pack bodies are bound
// once and kept, so a long-lived Set (the contraction machine keeps one)
// re-aimed with ResetOn allocates nothing per level.
type Set struct {
	slots []uint64
	mask  uint64
	count atomic.Int64

	pack       parallel.Packer[uint64]
	fnFill     func(lo, hi int)
	fnOccupied func(i int) bool
}

// SizeFor returns the slot-array length used for a set of the given
// capacity: the next power of two above 1.5x capacity, keeping probe
// sequences short.
func SizeFor(capacity int) int {
	if capacity < 1 {
		capacity = 1
	}
	size := 16
	for size < capacity+capacity/2 {
		size <<= 1
	}
	return size
}

// NewSet returns a set able to hold at least capacity keys, filling its
// slots on pool p.
func NewSet(p *parallel.Pool, procs, capacity int) *Set {
	s := &Set{}
	s.ResetOn(p, procs, make([]uint64, SizeFor(capacity)))
	return s
}

// Reset is ResetOn on the default pool. It is kept for the benchmark
// program's layer probes (perfbench/trace.go); library code calls ResetOn.
func (s *Set) Reset(procs int, slots []uint64) {
	s.ResetOn(parallel.Default(), procs, slots)
}

// ResetOn re-initializes s as an empty set backed by slots, whose length
// must be a power of two (use SizeFor), filling the slots on pool p. It
// exists so a long-lived Set can be re-aimed at recycled scratch memory
// each contraction level instead of allocating a fresh table; the previous
// backing array is abandoned (callers recycling it must release it before
// or after ResetOn themselves).
func (s *Set) ResetOn(p *parallel.Pool, procs int, slots []uint64) {
	size := len(slots)
	if size == 0 || size&(size-1) != 0 {
		panic("hashtable: Reset slots length must be a nonzero power of two")
	}
	s.slots = slots
	s.mask = uint64(size - 1)
	s.count.Store(0)
	if procs == 1 {
		// Inline, so a one-worker caller needs no bound body.
		for i := range slots {
			slots[i] = Empty
		}
		return
	}
	s.bind()
	p.Blocks(procs, size, 0, s.fnFill)
}

// bind binds the fill and occupancy bodies on first use.
func (s *Set) bind() {
	if s.fnFill != nil {
		return
	}
	s.fnFill = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			//parconn:allow mixedatomic pre-publication init; the Blocks join barrier publishes slots before any Insert
			s.slots[i] = Empty
		}
	}
	s.fnOccupied = func(i int) bool {
		//parconn:allow mixedatomic the element read phase must not overlap Insert (phase-concurrency contract above)
		return s.slots[i] != Empty
	}
}

// Insert adds key to the set; it reports whether the key was newly inserted.
// Safe for concurrent use during the insert phase. It panics if key == Empty
// or the table fills up (the library always sizes tables to their maximum
// possible occupancy, so a full table indicates a bug).
func (s *Set) Insert(key uint64) bool {
	if key == Empty {
		panic("hashtable: cannot insert reserved Empty key")
	}
	i := prand.Hash64(key) & s.mask
	for probes := uint64(0); probes <= s.mask; probes++ {
		cur := atomic.LoadUint64(&s.slots[i])
		if cur == key {
			return false
		}
		if cur == Empty {
			if atomic.CompareAndSwapUint64(&s.slots[i], Empty, key) {
				s.count.Add(1)
				return true
			}
			// Lost the race; re-examine the same slot (it now holds some
			// key, possibly ours).
			probes--
			continue
		}
		i = (i + 1) & s.mask
	}
	panic("hashtable: table full")
}

// Contains reports whether key is in the set. It must not run concurrently
// with Insert (phase-concurrency contract).
func (s *Set) Contains(key uint64) bool {
	if key == Empty {
		return false
	}
	i := prand.Hash64(key) & s.mask
	for probes := uint64(0); probes <= s.mask; probes++ {
		cur := s.slots[i] //parconn:allow mixedatomic Contains must not overlap Insert (phase-concurrency contract above)
		if cur == key {
			return true
		}
		if cur == Empty {
			return false
		}
		i = (i + 1) & s.mask
	}
	return false
}

// Drop releases the Set's reference to its backing slot array (so the array
// can be recycled without the Set pinning or aliasing it) and empties the
// set. The Set is unusable until the next Reset.
func (s *Set) Drop() {
	s.slots = nil
	s.mask = 0
	s.count.Store(0)
}

// Len returns the number of keys inserted so far.
func (s *Set) Len() int { return int(s.count.Load()) }

// Elements returns the set's keys in table order (arbitrary but
// deterministic for a fixed insert set and table size... note: slot layout
// depends on insert interleaving only when distinct keys race for one slot's
// probe chain, so ordering may vary across runs; callers sort afterwards if
// they need a canonical order). It packs on pool p and must not run
// concurrently with Insert.
func (s *Set) Elements(p *parallel.Pool, procs int) []uint64 {
	s.bind()
	return parallel.Pack(p, procs, s.slots, s.fnOccupied)
}

// ElementsInto writes the set's keys into dst (which must hold at least
// Len() elements; dst must not alias the backing slots), packing on pool p,
// and returns the number written. Ordering matches Elements. Must not run
// concurrently with Insert.
func (s *Set) ElementsInto(p *parallel.Pool, procs int, dst []uint64) int {
	if procs == 1 {
		// Inline, so a one-worker caller needs no bound body.
		k := 0
		//parconn:allow mixedatomic ElementsInto must not overlap Insert (phase-concurrency contract above)
		for _, x := range s.slots {
			if x != Empty {
				dst[k] = x
				k++
			}
		}
		return k
	}
	s.bind()
	return s.pack.Into(p, procs, dst, s.slots, s.fnOccupied)
}
