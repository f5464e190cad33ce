package parallel

// Packer is the one pack (filter) body behind Pack and PackInto, and
// PackIndex's flag pass: the work-efficient flag pass, exclusive scan over
// block counts, and scatter pass. The input is cut into blockCount blocks;
// the count and scatter passes are dispatched one block per claim on the
// caller's pool, so they fork whenever it has a second worker, and the scan
// of the few block counts runs on the caller.
//
// The zero Packer is ready to use, and it must not be copied after first
// use. Keeping one across calls binds its two block bodies and its count
// array once, so a warm call allocates nothing beyond the pool's
// per-section cost. A Packer serves one call at a time.
type Packer[T any] struct {
	dst, xs          []T
	keep             func(i int) bool
	counts           []int
	n                int
	fnCount, fnWrite func(lo, hi int)
}

// Into writes, in order, the elements xs[i] for which keep(i) is true into
// dst on pool p and returns how many it wrote. dst must have room for every
// kept element and must not alias xs.
func (k *Packer[T]) Into(p *Pool, procs int, dst, xs []T, keep func(i int) bool) int {
	n := len(xs)
	nblocks := blockCount(procs, n)
	if nblocks == 1 {
		c := 0
		for i := 0; i < n; i++ {
			if keep(i) {
				dst[c] = xs[i]
				c++
			}
		}
		return c
	}
	total := k.count(p, procs, nblocks, n, keep)
	_ = dst[:total] // bounds check once: dst must hold every kept element
	k.write(p, procs, dst, xs)
	return total
}

// count runs the flag pass over nblocks blocks of [0,n) and scans the block
// counts into block offsets, returning the number of kept elements.
func (k *Packer[T]) count(p *Pool, procs, nblocks, n int, keep func(i int) bool) int {
	if k.fnCount == nil {
		k.bind()
	}
	if cap(k.counts) < nblocks {
		k.counts = make([]int, nblocks)
	}
	k.counts = k.counts[:nblocks]
	k.n, k.keep = n, keep
	p.Blocks(procs, nblocks, 1, k.fnCount)
	return scanSerial(k.counts, k.counts)
}

// write is the scatter pass after count.
func (k *Packer[T]) write(p *Pool, procs int, dst, xs []T) {
	k.dst, k.xs = dst, xs
	p.Blocks(procs, len(k.counts), 1, k.fnWrite)
	k.dst, k.xs, k.keep = nil, nil, nil
}

// bind binds the two block bodies, which read each call's state from k.
func (k *Packer[T]) bind() {
	k.fnCount = func(lo, hi int) {
		keep := k.keep
		for b := lo; b < hi; b++ {
			l, h := blockRange(k.n, len(k.counts), b)
			c := 0
			for i := l; i < h; i++ {
				if keep(i) {
					c++
				}
			}
			k.counts[b] = c
		}
	}
	k.fnWrite = func(lo, hi int) {
		dst, xs, keep := k.dst, k.xs, k.keep
		for b := lo; b < hi; b++ {
			l, h := blockRange(k.n, len(k.counts), b)
			c := k.counts[b]
			for i := l; i < h; i++ {
				if keep(i) {
					dst[c] = xs[i]
					c++
				}
			}
		}
	}
}

// PackInto is Packer.Into on the default pool with a fresh Packer. It is
// kept for the benchmark program's layer probes (perfbench/trace.go);
// library code keeps a Packer and passes its pool.
func PackInto[T any](procs int, dst, xs []T, keep func(i int) bool) int {
	var k Packer[T]
	return k.Into(Default(), procs, dst, xs, keep)
}

// Pack returns the elements xs[i] for which keep(i) is true, preserving
// order, computed on pool p. The output is allocated at its exact size
// between the count and scatter passes.
//
//parconn:allow hotalloc the result slice and the Packer are the allocating pack form's documented per-call cost
func Pack[T any](p *Pool, procs int, xs []T, keep func(i int) bool) []T {
	n := len(xs)
	nblocks := blockCount(procs, n)
	if nblocks == 1 {
		out := make([]T, 0, n/4+16)
		for i := 0; i < n; i++ {
			if keep(i) {
				out = append(out, xs[i])
			}
		}
		return out
	}
	var k Packer[T]
	out := make([]T, k.count(p, procs, nblocks, n, keep))
	k.write(p, procs, out, xs)
	return out
}

// PackIndex returns, in order, the indices i in [0,n) for which keep(i) is
// true, as int32 values, computed on pool p. It is used to compact bitmap
// frontiers back to sparse form. It shares Packer's flag pass and writes
// each kept index directly, with no identity array to pack.
func PackIndex(p *Pool, procs, n int, keep func(i int) bool) []int32 {
	nblocks := blockCount(procs, n)
	if nblocks == 1 {
		out := make([]int32, 0, 16)
		for i := 0; i < n; i++ {
			if keep(i) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	var k Packer[int32]
	out := make([]int32, k.count(p, procs, nblocks, n, keep))
	counts := k.counts
	p.Blocks(procs, nblocks, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			l, h := blockRange(n, nblocks, b)
			c := counts[b]
			for i := l; i < h; i++ {
				if keep(i) {
					out[c] = int32(i)
					c++
				}
			}
		}
	})
	return out
}
