package prand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHash64Deterministic(t *testing.T) {
	for i := uint64(0); i < 100; i++ {
		if Hash64(i) != Hash64(i) {
			t.Fatalf("Hash64(%d) not deterministic", i)
		}
	}
}

func TestHash64Distinct(t *testing.T) {
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 100000; i++ {
		h := Hash64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: Hash64(%d) == Hash64(%d)", i, prev)
		}
		seen[h] = i
	}
}

func TestHash32Distribution(t *testing.T) {
	// Count bits set across many hashes; should be ~16 per value on average.
	var total int
	const trials = 10000
	for i := uint64(0); i < trials; i++ {
		v := Hash32(i)
		for v != 0 {
			total += int(v & 1)
			v >>= 1
		}
	}
	mean := float64(total) / trials
	if mean < 15.5 || mean > 16.5 {
		t.Fatalf("mean bits set = %.3f, want ~16", mean)
	}
}

func TestSourceDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed sources diverged at step %d", i)
		}
	}
}

func TestSourceSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestReseedResets(t *testing.T) {
	s := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = s.Uint64()
	}
	s.Reseed(7)
	for i := range first {
		if got := s.Uint64(); got != first[i] {
			t.Fatalf("Reseed did not reproduce stream at %d", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestInt31nRange(t *testing.T) {
	s := New(4)
	for _, n := range []int32{1, 5, 1000, math.MaxInt32} {
		for i := 0; i < 200; i++ {
			v := s.Int31n(n)
			if v < 0 || v >= n {
				t.Fatalf("Int31n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniform(t *testing.T) {
	// Chi-squared-ish sanity: 8 buckets, 80k draws, each bucket within 5%.
	s := New(11)
	const n, draws = 8, 80000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[s.Uint64n(n)]++
	}
	want := draws / n
	for b, c := range counts {
		if c < want*95/100 || c > want*105/100 {
			t.Fatalf("bucket %d count %d deviates >5%% from %d", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestExpMean(t *testing.T) {
	// Mean of Exp(lambda) is 1/lambda; with 200k samples the sample mean
	// should be within 2% for lambda in a practical range.
	for _, lambda := range []float64{0.1, 0.5, 1, 2} {
		s := New(99)
		const trials = 200000
		var sum float64
		for i := 0; i < trials; i++ {
			v := s.Exp(lambda)
			if v < 0 {
				t.Fatalf("Exp(%v) produced negative %v", lambda, v)
			}
			sum += v
		}
		mean := sum / trials
		want := 1 / lambda
		if math.Abs(mean-want)/want > 0.02 {
			t.Fatalf("Exp(%v) sample mean %.4f, want %.4f +/-2%%", lambda, mean, want)
		}
	}
}

func TestExpPanicsOnBadLambda(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestExpFromUniformMatchesDistribution(t *testing.T) {
	// Empirical CDF at the median: P(X < ln2/lambda) should be ~0.5.
	const lambda = 0.2
	median := math.Ln2 / lambda
	below := 0
	const trials = 100000
	for i := uint64(0); i < trials; i++ {
		if ExpFromUniform(Hash64(i), lambda) < median {
			below++
		}
	}
	frac := float64(below) / trials
	if frac < 0.49 || frac > 0.51 {
		t.Fatalf("fraction below median = %.4f, want ~0.5", frac)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(123)
	a := root.Split(0)
	b := root.Split(1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams shared %d outputs", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(5).Split(9)
	b := New(5).Split(9)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Split not deterministic at step %d", i)
		}
	}
}

func TestMul64(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestMul64Property(t *testing.T) {
	// mul64 must agree with big-number multiplication modulo 2^64 and on
	// the high word via the identity (a*b)>>64 computed by four-way split.
	f := func(a, b uint64) bool {
		_, lo := mul64(a, b)
		return lo == a*b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSourceUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkHash64(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Hash64(uint64(i))
	}
	_ = sink
}

func TestSourceUint32(t *testing.T) {
	s := New(8)
	var or uint32
	for i := 0; i < 100; i++ {
		or |= s.Uint32()
	}
	// 100 draws must collectively touch high and low bits.
	if or>>28 == 0 || or&0xF == 0 {
		t.Fatalf("Uint32 outputs look degenerate: %x", or)
	}
}

func TestFastLogAccuracy(t *testing.T) {
	// fastLog backs the exponential shift draws; verify it tracks math.Log
	// to well under the documented 1e-7 relative error across the full
	// range of inputs ExpFromUniform can produce, including the extremes.
	check := func(x float64) {
		got, want := fastLog(x), math.Log(x)
		if x == 1 {
			if got != 0 {
				t.Fatalf("fastLog(1) = %v, want 0", got)
			}
			return
		}
		if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-7 {
			t.Fatalf("fastLog(%v) = %v, math.Log = %v, rel err %v", x, got, want, rel)
		}
	}
	check(1)
	check(1 - float64((uint64(1)<<53-1)>>11)/(1<<53)) // smallest 1-f
	for i := uint64(0); i < 200000; i++ {
		f := float64(Hash64(i)>>11) / (1 << 53)
		check(1 - f)
	}
}

// fastLogBranchy is fastLog's original fold, a float compare against
// math.Sqrt2 and an exact halving; fastLog must match it bit for bit.
func fastLogBranchy(x float64) float64 {
	bits := math.Float64bits(x)
	e := float64(int64(bits>>52) - 1023)
	m := math.Float64frombits(bits&0x000FFFFFFFFFFFFF | 0x3FF0000000000000)
	if m > math.Sqrt2 {
		m *= 0.5
		e++
	}
	s := (m - 1) / (m + 1)
	s2 := s * s
	ln := 2 * s * (1 + s2*(1.0/3+s2*(1.0/5+s2*(1.0/7))))
	return e*math.Ln2 + ln
}

// TestFastLogBitIdentical pins the branch-free fold to the branchy one: on
// 10^7 hashed draws of ExpFromUniform's input range, and on every mantissa
// within 4096 ulps of the fold point at several exponents.
func TestFastLogBitIdentical(t *testing.T) {
	check := func(x float64) {
		if got, want := fastLog(x), fastLogBranchy(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("fastLog(%v) = %v (%#x), branchy fold %v (%#x)",
				x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for i := uint64(0); i < 10_000_000; i++ {
		check(1 - float64(Hash64(i)>>11)/(1<<53))
	}
	const sqrt2Mant = 0x6A09E667F3BCD
	for _, exp := range []uint64{1023, 1022, 1000, 971} {
		for d := -4096; d <= 4096; d++ {
			check(math.Float64frombits(exp<<52 | uint64(sqrt2Mant+d)))
		}
	}
	check(1)
	check(0x1p-53)
	check(math.Nextafter(1, 0))
}
