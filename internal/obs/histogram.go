package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// HistogramBuckets is the number of log-spaced buckets in a Histogram:
// bucket 0 holds the value 0 and bucket i (1..64) holds values in
// [2^(i-1), 2^i). Base-2 spacing gives ~±50% resolution at every magnitude,
// which is enough to tell a 2x tail regression apart from noise while
// keeping the record path a single shift-free bits.Len64.
const HistogramBuckets = 65

// A Histogram counts non-negative int64 samples (durations in nanoseconds,
// frontier sizes) in fixed log2-spaced buckets. The zero value is ready to
// use. Record is wait-free, allocation-free, and safe from any goroutine —
// the histogram itself is not a Recorder, so it may legally be fed from
// inside parallel sections — and Snapshot may run concurrently with
// recording (it sees a near-consistent view: bucket counts are read one
// atomic load at a time, so a snapshot taken mid-record can be off by the
// in-flight sample).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	minPlus atomic.Int64 // min+1; 0 means "no samples yet" so the zero value works
	buckets [HistogramBuckets]atomic.Int64
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketBounds returns the half-open sample range [lo, hi) of bucket i.
func BucketBounds(i int) (lo, hi int64) {
	if i <= 0 {
		return 0, 1
	}
	if i >= 63 {
		return 1 << 62, math.MaxInt64
	}
	return 1 << (i - 1), 1 << i
}

// Record adds one sample. Negative samples are clamped to zero (durations
// from a non-monotonic clock step; they are noise, not data), and MaxInt64
// is clamped one below so the min tracker's v+1 encoding cannot overflow.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if v == math.MaxInt64 {
		v--
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.minPlus.Load()
		if (cur != 0 && v+1 >= cur) || h.minPlus.CompareAndSwap(cur, v+1) {
			break
		}
	}
}

// Count reports the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reports the total of all recorded samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// HistogramBucket is one non-empty bucket of a snapshot: Count samples in
// [Lo, Hi).
type HistogramBucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a Histogram, carrying only
// the non-empty buckets.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Min     int64             `json:"min"`
	Max     int64             `json:"max"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot copies the current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if mp := h.minPlus.Load(); mp > 0 {
		s.Min = mp - 1
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			lo, hi := BucketBounds(i)
			s.Buckets = append(s.Buckets, HistogramBucket{Lo: lo, Hi: hi, Count: n})
		}
	}
	return s
}

// Mean returns the average sample, 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket counts,
// interpolating geometrically inside the holding bucket and clamping to the
// bucket's half-open range and then to the observed min/max. Log-spaced
// buckets make the estimate exact to within a factor of 2, which is the
// histogram's design resolution; a single-sample snapshot and a
// single-bucket snapshot whose bucket holds both Min and Max collapse to
// exact answers through the clamps.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := q * float64(s.Count)
	var seen float64
	for _, b := range s.Buckets {
		seen += float64(b.Count)
		if seen < rank {
			continue
		}
		// The zero bucket holds only the value 0; interpolation on
		// [max(Lo,1), Hi) would invent a 1.
		if b.Lo == 0 {
			return max(int64(0), s.Min)
		}
		// Geometric midpoint-ish interpolation: position within the
		// bucket by remaining rank fraction, on a log scale.
		frac := 1 - (seen-rank)/float64(b.Count)
		lo, hi := float64(b.Lo), float64(b.Hi)
		f := lo * math.Pow(hi/lo, frac)
		// Keep the estimate inside the half-open bucket: frac == 1 (q
		// landing exactly on the bucket's cumulative boundary) otherwise
		// yields the exclusive bound Hi, and in the top bucket the float
		// result can exceed MaxInt64, making the int64 conversion
		// undefined. Compare in float before converting.
		v := b.Hi - 1
		if f < float64(b.Hi) {
			v = max(int64(f), b.Lo)
		}
		return min(max(v, s.Min), s.Max)
	}
	return s.Max
}

// String summarizes the histogram for debug output.
func (s HistogramSnapshot) String() string {
	return fmt.Sprintf("count=%d sum=%d min=%d p50=%d p90=%d max=%d",
		s.Count, s.Sum, s.Min, s.Quantile(0.5), s.Quantile(0.9), s.Max)
}
