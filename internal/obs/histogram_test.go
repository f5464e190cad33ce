package obs

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	cases := map[int64]int{
		-5: 0, 0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4,
		1023: 10, 1024: 11, math.MaxInt64: 63,
	}
	for v, want := range cases {
		if got := bucketOf(v); got != want {
			t.Errorf("bucketOf(%d) = %d want %d", v, got, want)
		}
	}
	for i := 0; i < HistogramBuckets; i++ {
		lo, hi := BucketBounds(i)
		if lo >= hi && i < 64 {
			t.Errorf("bucket %d bounds [%d, %d) empty", i, lo, hi)
		}
		if i > 0 && i < 64 {
			if bucketOf(lo) != i || bucketOf(hi-1) != i {
				t.Errorf("bucket %d bounds [%d, %d) disagree with bucketOf", i, lo, hi)
			}
		}
	}
}

func TestHistogramRecordSnapshot(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 5, 5, 100, 1000, -3} {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("Count %d want 7", s.Count)
	}
	if s.Sum != 1111 {
		t.Fatalf("Sum %d want 1111", s.Sum)
	}
	if s.Min != 0 || s.Max != 1000 {
		t.Fatalf("Min/Max %d/%d want 0/1000", s.Min, s.Max)
	}
	if got := s.Quantile(0); got != 0 {
		t.Fatalf("p0 %d want 0", got)
	}
	if got := s.Quantile(1); got != 1000 {
		t.Fatalf("p100 %d want 1000", got)
	}
	// The median sample is 5; log-spaced buckets place p50 in [4, 8).
	if got := s.Quantile(0.5); got < 4 || got >= 8 {
		t.Fatalf("p50 %d outside the median's bucket [4, 8)", got)
	}
	if m := s.Mean(); math.Abs(m-1111.0/7) > 1e-9 {
		t.Fatalf("Mean %v", m)
	}

	// An all-zero histogram must survive quantiles and JSON encoding.
	var empty Histogram
	es := empty.Snapshot()
	if es.Count != 0 || es.Quantile(0.5) != 0 {
		t.Fatalf("empty snapshot %+v", es)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMinTracksSmallest(t *testing.T) {
	var h Histogram
	h.Record(100)
	h.Record(7)
	h.Record(50)
	if s := h.Snapshot(); s.Min != 7 {
		t.Fatalf("Min %d want 7", s.Min)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("Count %d want %d", s.Count, workers*per)
	}
	const n = int64(workers * per)
	if s.Sum != n*(n-1)/2 {
		t.Fatalf("Sum %d want %d", s.Sum, n*(n-1)/2)
	}
	if s.Min != 0 || s.Max != n-1 {
		t.Fatalf("Min/Max %d/%d", s.Min, s.Max)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
}

// TestQuantileEdgeCases pins exact values for the snapshot quantile
// estimator on the configurations that used to go wrong: single-sample
// snapshots, all mass in one bucket, ranks landing exactly on a bucket
// boundary, the zero bucket, the top bucket, and min/max clamping on
// snapshots spanning several buckets. These quantiles are the gated P95/P99 numbers of the
// serving benchmark, so the expectations are exact, not approximate.
func TestQuantileEdgeCases(t *testing.T) {
	record := func(vs ...int64) HistogramSnapshot {
		var h Histogram
		for _, v := range vs {
			h.Record(v)
		}
		return h.Snapshot()
	}
	cases := []struct {
		name string
		snap HistogramSnapshot
		q    float64
		want int64
	}{
		// A single sample is exact at every q.
		{"single-q0", record(100), 0, 100},
		{"single-q50", record(100), 0.5, 100},
		{"single-q99", record(100), 0.99, 100},
		{"single-q1", record(100), 1, 100},
		// All mass in one bucket: clamped to the observed [min, max].
		{"one-bucket-low", record(9, 9, 9, 9), 0.25, 9},
		{"one-bucket-minmax", record(9, 15), 0.25, 9},
		{"one-bucket-minmax-high", record(9, 15), 0.99, 15},
		// q landing exactly on a bucket's cumulative boundary must not
		// return the bucket's exclusive upper bound. Samples 4 and 16 live
		// in buckets [4,8) and [16,32); q=0.5 has rank exactly 1.0 at the
		// end of the first bucket, so the estimate is the bucket's largest
		// member, 7 — inside [4,8), never the exclusive bound 8.
		{"boundary-rank", record(4, 16), 0.5, 7},
		{"boundary-rank-above", record(4, 16), 0.75, 16},
		// The zero bucket holds only the value 0; the old interpolation
		// invented a 1 here.
		{"zero-bucket", record(0, 0, 0, 100), 0.5, 0},
		// rank 3.6 interpolates inside [64,128): 64*2^0.6 = 97.
		{"zero-bucket-tail", record(0, 0, 0, 100), 0.9, 97},
		{"all-zero", record(0, 0), 0.5, 0},
		// Top bucket: interpolation in [2^62, MaxInt64) used to overflow
		// the float64 -> int64 conversion near frac = 1, and recording
		// MaxInt64 itself used to wrap the min tracker's v+1 encoding
		// (leaving Min = 0); both now clamp to MaxInt64 - 1.
		{"top-bucket", record(math.MaxInt64, math.MaxInt64), 0.999, math.MaxInt64 - 1},
		{"top-bucket-min", record(math.MaxInt64, math.MaxInt64), 0, math.MaxInt64 - 1},
		// Empty snapshot.
		{"empty", HistogramSnapshot{}, 0.5, 0},
	}
	for _, tc := range cases {
		if got := tc.snap.Quantile(tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%v) = %d want %d (snapshot %+v)", tc.name, tc.q, got, tc.want, tc.snap)
		}
	}
}

// TestQuantileTwoClusters checks min/max clamping on a snapshot whose
// samples sit in two far-apart buckets: Min/Max span both clusters, and
// quantiles landing in either cluster's bucket stay within the observed
// range.
func TestQuantileTwoClusters(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Record(5) // bucket [4,8)
	}
	h.Record(1000) // bucket [512,1024)
	s := h.Snapshot()
	if s.Min != 5 || s.Max != 1000 || s.Count != 11 {
		t.Fatalf("snapshot %+v", s)
	}
	if got := s.Quantile(0.5); got != 5 {
		t.Errorf("p50 = %d want 5", got)
	}
	if got := s.Quantile(1); got != 1000 {
		t.Errorf("p100 = %d want 1000", got)
	}
	// The tail quantile lands in the upper cluster's bucket; geometric
	// interpolation must not exceed the observed max even though the bucket
	// reaches 1024.
	if got := s.Quantile(0.99); got < 512 || got > 1000 {
		t.Errorf("p99 = %d want within [512, 1000]", got)
	}
	// Quantiles are monotone in q.
	prev := int64(-1)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
		v := s.Quantile(q)
		if v < prev {
			t.Errorf("Quantile(%v) = %d < previous %d (not monotone)", q, v, prev)
		}
		prev = v
	}
}
