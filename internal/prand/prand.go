// Package prand provides deterministic, splittable pseudo-random number
// generation for parallel algorithms.
//
// Every randomized component of the library (exponential start-time shifts,
// random permutations, graph generators, hash functions) draws from this
// package so that a fixed seed reproduces an identical run regardless of the
// number of workers. The generators are cheap value types: a parallel loop
// typically derives an independent stream per index with Hash64 or per block
// with Split, rather than sharing one stream under a lock.
package prand

import "math"

// splitmix64 advances x by the splitmix64 increment and returns the mixed
// output. It is the standard seeding/stream-splitting function from
// Steele, Lea, Flood (OOPSLA'14) and is also a high-quality 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash64 mixes x to a uniform 64-bit value. It is stateless: Hash64(i) for
// i = 0, 1, 2, ... is a standard way to get per-index randomness inside a
// parallel loop without any shared state.
func Hash64(x uint64) uint64 {
	return splitmix64(x)
}

// Hash32 mixes x to a uniform 32-bit value.
func Hash32(x uint64) uint32 {
	return uint32(splitmix64(x) >> 32)
}

// Source is a small, fast xoshiro256++ PRNG. The zero value is not a valid
// generator; construct with New.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from seed via splitmix64, per the xoshiro
// authors' recommendation.
func New(seed uint64) *Source {
	var s Source
	s.Reseed(seed)
	return &s
}

// Reseed resets the generator state from seed.
func (s *Source) Reseed(seed uint64) {
	x := seed
	x += 0x9e3779b97f4a7c15
	s.s0 = splitmix64(x)
	x += 0x9e3779b97f4a7c15
	s.s1 = splitmix64(x)
	x += 0x9e3779b97f4a7c15
	s.s2 = splitmix64(x)
	x += 0x9e3779b97f4a7c15
	s.s3 = splitmix64(x)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s0+s.s3, 23) + s.s0
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Uint32 returns a uniform 32-bit value.
func (s *Source) Uint32() uint32 { return uint32(s.Uint64() >> 32) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("prand: Intn called with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Int31n returns a uniform int32 in [0, n). It panics if n <= 0.
func (s *Source) Int31n(n int32) int32 {
	if n <= 0 {
		panic("prand: Int31n called with n <= 0")
	}
	return int32(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prand: Uint64n called with n == 0")
	}
	// Lemire (2019): multiply-and-shift with rejection of the biased zone.
	hi, lo := mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = mul64(s.Uint64(), n)
		}
	}
	return hi
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	c0 := a0 * b0
	t := a1*b0 + c0>>32
	c1 := t & mask32
	c2 := t >> 32
	c1 += a0 * b1
	hi = a1*b1 + c2 + c1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with rate lambda
// (mean 1/lambda) by inversion. It panics if lambda <= 0.
//
// The low-diameter decomposition assigns each vertex a start-time shift
// drawn from this distribution with lambda = beta (Miller et al. SPAA'13).
func (s *Source) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("prand: Exp called with lambda <= 0")
	}
	// 1-Float64() is in (0,1], so Log never sees 0.
	return -math.Log(1-s.Float64()) / lambda
}

// Split returns a new Source whose stream is independent of s for all
// practical purposes, derived from s's stream and the given index. Parallel
// workers split one root source per block so results do not depend on the
// number of workers.
func (s *Source) Split(index uint64) *Source {
	return New(splitmix64(s.s0^rotl(s.s3, 13)) ^ splitmix64(index+0x632be59bd9b4e019))
}

// ExpFromUniform converts a uniform 64-bit value to an exponential draw with
// rate lambda. Combined with Hash64 it gives per-index exponential shifts
// inside a parallel loop with no shared state:
//
//	delta := prand.ExpFromUniform(prand.Hash64(seed^uint64(v)), beta)
//
// The logarithm is fastLog rather than math.Log: the draw is the per-vertex
// inner loop of the decomposition's init phase, and the polynomial's ~1e-7
// relative error is far below the distribution tolerances anything downstream
// depends on. The draws are still exactly deterministic per (u, lambda).
func ExpFromUniform(u uint64, lambda float64) float64 {
	f := float64(u>>11) / (1 << 53) // [0,1)
	return -fastLog(1-f) / lambda
}

// fastLog returns ln(x) for x in (0, 1] to ~1e-7 relative accuracy. It
// splits x into exponent and mantissa from the float bits, folds the
// mantissa into [sqrt2/2, sqrt2), and evaluates the odd atanh series
// ln(m) = 2(s + s³/3 + s⁵/5 + s⁷/7) with s = (m-1)/(m+1), |s| < 0.1716.
// The truncation error is under s⁹/9 ≈ 1.3e-8. Pure float arithmetic in a
// fixed order, so results are identical across platforms and builds.
//
// The fold is branch-free: m = 1.f > sqrt2 exactly when the mantissa bits f
// exceed sqrt2's, and halving m only lowers its exponent field by one, so
// the borrow of sqrt2Mant - f selects both the exponent field and the
// increment of e. The result is bit-identical to comparing m > math.Sqrt2
// and multiplying by 0.5 (exact), without a branch that mispredicts on half
// of the uniform draws.
func fastLog(x float64) float64 {
	const sqrt2Mant = 0x6A09E667F3BCD // mantissa bits of math.Sqrt2
	bits := math.Float64bits(x)
	mant := bits & 0x000FFFFFFFFFFFFF
	fold := (sqrt2Mant - mant) >> 63 // 1 when m > sqrt2, else 0
	e := float64(int64(bits>>52) - 1023 + int64(fold))
	m := math.Float64frombits(mant | (0x3FF-fold)<<52) // [sqrt2/2, sqrt2]
	s := (m - 1) / (m + 1)
	s2 := s * s
	ln := 2 * s * (1 + s2*(1.0/3+s2*(1.0/5+s2*(1.0/7))))
	return e*math.Ln2 + ln
}
