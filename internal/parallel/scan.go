package parallel

// scanSerial computes the exclusive prefix sum of xs into out and returns the
// total. out may alias xs.
func scanSerial[T Number](out, xs []T) T {
	var acc T
	for i, v := range xs {
		out[i] = acc
		acc += v
	}
	return acc
}

// blockCount is the number of blocks the scan and pack bodies cut an
// n-element input into: one (the serial path) for a single worker or under
// two grains of input, otherwise four per worker, each of at least
// DefaultGrain elements.
func blockCount(procs, n int) int {
	procs = Procs(procs)
	if procs == 1 || n < 2*DefaultGrain {
		return 1
	}
	return min(4*procs, n/DefaultGrain)
}

// blockRange returns block b's half-open range of [0,n) cut into nblocks.
func blockRange(n, nblocks, b int) (lo, hi int) {
	return n * b / nblocks, n * (b + 1) / nblocks
}

// Scan is the one prefix-sum body, behind ExScanInto too. It cuts its input
// into blockCount blocks; one pass sums every block, a serial scan turns the
// block sums into block offsets, and a second pass rescans every block from
// its offset. Both passes are dispatched one block per claim on the caller's
// pool, so they fork whenever it has a second worker.
//
// The zero Scan is ready to use, and it must not be copied after first use.
// Keeping one across calls, as the contraction machine does, binds its two
// block bodies and its block-sum array once, so a warm call allocates
// nothing beyond the pool's per-section cost. A Scan serves one call at a
// time.
type Scan[T Number] struct {
	dst, src, sums []T
	fnSum, fnApply func(lo, hi int)
}

// Exclusive writes the exclusive prefix sum of src into dst (which may alias
// src) on pool p and returns the total: afterwards dst[i] holds the sum of
// src[0..i). This is the "plus-scan" used throughout the paper's
// implementation for computing offsets into shared arrays.
func (s *Scan[T]) Exclusive(p *Pool, procs int, dst, src []T) T {
	if len(dst) != len(src) {
		panic("parallel: ExScanInto length mismatch")
	}
	nblocks := blockCount(procs, len(src))
	if nblocks == 1 {
		return scanSerial(dst, src)
	}
	if s.fnSum == nil {
		s.bind()
	}
	if cap(s.sums) < nblocks {
		s.sums = make([]T, nblocks)
	}
	s.sums = s.sums[:nblocks]
	s.dst, s.src = dst, src
	p.Blocks(procs, nblocks, 1, s.fnSum)
	total := scanSerial(s.sums, s.sums)
	p.Blocks(procs, nblocks, 1, s.fnApply)
	s.dst, s.src = nil, nil
	return total
}

// bind binds the two block bodies, which read each call's state from s.
func (s *Scan[T]) bind() {
	s.fnSum = func(lo, hi int) {
		for b := lo; b < hi; b++ {
			l, h := blockRange(len(s.src), len(s.sums), b)
			var acc T
			for _, v := range s.src[l:h] {
				acc += v
			}
			s.sums[b] = acc
		}
	}
	s.fnApply = func(lo, hi int) {
		src, dst := s.src, s.dst
		for b := lo; b < hi; b++ {
			l, h := blockRange(len(src), len(s.sums), b)
			acc := s.sums[b]
			for i := l; i < h; i++ {
				v := src[i]
				dst[i] = acc
				acc += v
			}
		}
	}
}

// ExScanInto is Scan.Exclusive on the default pool with a fresh Scan. It is
// kept for the benchmark program's layer probes (perfbench/trace.go);
// library code keeps a Scan and passes its pool.
func ExScanInto[T Number](procs int, dst, src []T) T {
	var s Scan[T]
	return s.Exclusive(Default(), procs, dst, src)
}
