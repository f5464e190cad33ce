// Package intsort implements a parallel linear-work integer sort (LSD radix
// sort), the analogue of the PBBS integer sort the paper uses during graph
// contraction to group the remaining inter-component edges by component.
//
// The sort is stable, runs one counting pass per 8-bit digit, and only sorts
// the digits that can be non-zero given the caller-supplied key width, so
// sorting m packed edges whose endpoints fit in b bits costs O(m * ceil(2b/8))
// work — linear for the fixed word sizes used here. The same stable counting
// pass also orders indices by a small integer key (Sorter.Order), which the
// decomposition uses to bucket vertices by start round.
package intsort

import (
	"parconn/internal/parallel"
)

const (
	digitBits = 8
	radix     = 1 << digitBits
	digitMask = radix - 1
)

// Bits returns the number of significant bits needed to represent max
// (at least 1).
func Bits(max uint64) int {
	b := 1
	for max >= 2 {
		max >>= 1
		b++
	}
	return b
}

// Sorter runs the parallel stable counting pass: the input is cut into a
// few blocks per worker, every block counts its keys into its own row of a
// block-major count matrix, one serial digit-major scan turns the matrix
// into each (bucket, block)'s first output slot, and every block scatters
// its elements from its row. A block's row is contiguous and written by
// that block alone, so concurrent blocks never share a counter cache line
// (a digit-major matrix put every block's counter for one digit in one
// line). The count and scatter passes are dispatched one block per claim
// on the caller's pool, so they fork whenever it has a second worker. A
// sort too small to fork takes sortSerial, which counts on the stack.
//
// The zero Sorter is ready to use, and it must not be copied after first
// use. Keeping one across calls, as the contraction machine and the shift
// draw do, binds its block bodies and its count matrix once, so a warm call
// allocates nothing beyond the pool's per-section cost. A Sorter serves one
// call at a time.
type Sorter struct {
	counts           []int64 // nblocks rows of buckets counters
	n, nblocks       int
	buckets          int
	src, dst         []uint64 // radix pass: move src into dst by digit
	shift            uint
	byKey            bool    // Order's pass rather than a radix pass
	keys, order      []int32 // Order: write indices into order by key
	fnCount, fnWrite func(lo, hi int)
	fnCopy           func(lo, hi int) // copies src[lo:hi] into dst
}

// SortUint64In is Sorter.Sort on the default pool, building a Sorter only
// when the sort forks. It is kept for the benchmark program's layer probes
// (perfbench/trace.go); library code keeps a Sorter and passes its pool.
func SortUint64In(procs int, a []uint64, bits int, scratch []uint64) {
	if sortBlocks(procs, len(a)) == 1 {
		sortSerial(a, bits, scratch)
		return
	}
	var s Sorter
	s.Sort(parallel.Default(), procs, a, bits, scratch)
}

// Sort sorts a in ascending order on pool p, treating only the low `bits`
// bits as significant (keys must not exceed 2^bits - 1; bits <= 0 or > 64
// means 64). The sort is stable. scratch is the ping-pong storage: nil or
// of length >= len(a). Passing a recycled scratch buffer makes a warm
// Sorter's sort allocation-free.
func (s *Sorter) Sort(p *parallel.Pool, procs int, a []uint64, bits int, scratch []uint64) {
	n := len(a)
	nblocks := sortBlocks(procs, n)
	if nblocks == 1 {
		sortSerial(a, bits, scratch)
		return
	}
	buf, passes := buffer(a, bits, scratch)
	s.layout(nblocks, n, radix)
	src, dst := a, buf
	for pass := 0; pass < passes; pass++ {
		s.byKey, s.src, s.dst, s.shift = false, src, dst, uint(pass*digitBits)
		s.run(p, procs)
		src, dst = dst, src
	}
	if passes%2 == 1 {
		// The last pass wrote buf; copy it back in uniform blocks.
		s.src, s.dst = buf, a
		p.Blocks(procs, n, 0, s.fnCopy)
	}
	s.src, s.dst = nil, nil
}

// sortSerial is the one-block sort: each pass counts its digits on the
// stack, so it allocates nothing when scratch is long enough.
func sortSerial(a []uint64, bits int, scratch []uint64) {
	buf, passes := buffer(a, bits, scratch)
	src, dst := a, buf
	for pass := 0; pass < passes; pass++ {
		shift := uint(pass * digitBits)
		var counts [radix]int64
		for _, v := range src {
			counts[(v>>shift)&digitMask]++
		}
		var acc int64
		for d := range counts {
			c := counts[d]
			counts[d] = acc
			acc += c
		}
		for _, v := range src {
			d := (v >> shift) & digitMask
			dst[counts[d]] = v
			counts[d]++
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(a, buf)
	}
}

// buffer returns the ping-pong buffer for sorting a, scratch when it is
// long enough, and the number of digit passes bits needs (none when a has
// at most one element). bits <= 0 or > 64 means 64.
func buffer(a []uint64, bits int, scratch []uint64) (buf []uint64, passes int) {
	n := len(a)
	if n <= 1 {
		return nil, 0
	}
	if bits <= 0 || bits > 64 {
		bits = 64
	}
	if len(scratch) < n {
		//parconn:allow hotalloc fallback when the caller's scratch is short; contract always passes full-length arena scratch
		return make([]uint64, n), (bits + digitBits - 1) / digitBits
	}
	return scratch[:n], (bits + digitBits - 1) / digitBits
}

// Order writes into order (len(keys)) the indices 0..len(keys)-1 stably
// sorted by keys[i], which must lie in [0, buckets), on pool p. If ends is
// non-nil (len(ends) == buckets), ends[r] receives the number of keys <= r.
func (s *Sorter) Order(p *parallel.Pool, procs int, keys []int32, buckets int, order, ends []int32) {
	n := len(keys)
	s.layout(sortBlocks(procs, n), n, buckets)
	s.byKey, s.keys, s.order = true, keys, order
	s.run(p, procs)
	s.keys, s.order = nil, nil
	if ends != nil {
		// After the scatter every row holds its block's cursors, one past
		// the block's last element of each bucket; the last block's
		// elements come last in every bucket, so its cursors are the
		// bucket ends.
		last := s.counts[(s.nblocks-1)*buckets:]
		for r := range ends {
			ends[r] = int32(last[r])
		}
	}
}

// sortBlocks is the number of blocks a counting pass over n elements
// uses: one, which runs on the caller, unless the pass can fork and n is
// big enough to pay for it.
func sortBlocks(procs, n int) int {
	if procs = parallel.Procs(procs); procs > 1 && n >= 1<<14 {
		return min(procs*4, n/1024+1)
	}
	return 1
}

// layout sizes the block-major count matrix for n elements in buckets.
func (s *Sorter) layout(nblocks, n, buckets int) {
	s.n, s.nblocks, s.buckets = n, nblocks, buckets
	if size := nblocks * buckets; cap(s.counts) < size {
		//parconn:allow hotalloc count matrix grows to the largest blocks x buckets once and is retained by the Sorter
		s.counts = make([]int64, size)
	} else {
		s.counts = s.counts[:size]
	}
}

// run is one stable counting pass: count, scan, scatter.
func (s *Sorter) run(p *parallel.Pool, procs int) {
	if s.nblocks == 1 {
		s.countBlock(0)
		s.scan()
		s.writeBlock(0)
		return
	}
	if s.fnCount == nil {
		s.bind()
	}
	p.Blocks(procs, s.nblocks, 1, s.fnCount)
	s.scan()
	p.Blocks(procs, s.nblocks, 1, s.fnWrite)
}

// bind binds the block bodies, which read each pass's state from s.
func (s *Sorter) bind() {
	s.fnCount = func(lo, hi int) {
		for b := lo; b < hi; b++ {
			s.countBlock(b)
		}
	}
	s.fnWrite = func(lo, hi int) {
		for b := lo; b < hi; b++ {
			s.writeBlock(b)
		}
	}
	s.fnCopy = func(lo, hi int) {
		copy(s.dst[lo:hi], s.src[lo:hi])
	}
}

// block returns block b's element range and its count row.
func (s *Sorter) block(b int) (lo, hi int, row []int64) {
	lo, hi = s.n*b/s.nblocks, s.n*(b+1)/s.nblocks
	return lo, hi, s.counts[b*s.buckets : (b+1)*s.buckets]
}

func (s *Sorter) countBlock(b int) {
	lo, hi, row := s.block(b)
	clear(row)
	if s.byKey {
		for _, k := range s.keys[lo:hi] {
			row[k]++
		}
		return
	}
	digits := (*[radix]int64)(row)
	shift := s.shift
	for _, v := range s.src[lo:hi] {
		digits[(v>>shift)&digitMask]++
	}
}

// scan turns the count matrix into first output slots, in (bucket, block)
// order: bucket-major across blocks is what makes the pass stable.
func (s *Sorter) scan() {
	var acc int64
	for d := 0; d < s.buckets; d++ {
		for i := d; i < len(s.counts); i += s.buckets {
			c := s.counts[i]
			s.counts[i] = acc
			acc += c
		}
	}
}

func (s *Sorter) writeBlock(b int) {
	lo, hi, row := s.block(b)
	if s.byKey {
		order := s.order
		for i, k := range s.keys[lo:hi] {
			order[row[k]] = int32(lo + i)
			row[k]++
		}
		return
	}
	cur := (*[radix]int64)(row)
	src, dst, shift := s.src, s.dst, s.shift
	for _, v := range src[lo:hi] {
		d := (v >> shift) & digitMask
		dst[cur[d]] = v
		cur[d]++
	}
}

// UniqueSorted compacts consecutive duplicates in the sorted slice a on
// pool p, returning the deduplicated slice.
func UniqueSorted(p *parallel.Pool, procs int, a []uint64) []uint64 {
	n := len(a)
	if n <= 1 {
		return a
	}
	return parallel.Pack(p, procs, a, func(i int) bool {
		return i == 0 || a[i] != a[i-1]
	})
}
