// Package workspace provides a reusable scratch arena for the large flat
// slices the connectivity algorithm churns through: frontier buffers, delta
// and start arrays, contraction pair lists, relabel maps, and hash-table
// slots. The recursion allocates these once per level and frees them on the
// way back up; because contracted graphs shrink geometrically, the level-0
// working set bounds the memory of the whole run — so recycling buffers
// across levels (and across repeated CC calls) turns the per-level
// allocation traffic into a small warm-up cost.
//
// Buffers are bucketed by power-of-two capacity class. Acquire rounds the
// request up to its class and also searches a few larger classes, so a
// buffer acquired for level k is found again by the smaller request at
// level k+1 instead of forcing a fresh allocation. Returned buffers are
// DIRTY: callers own initialization (the algorithm overwrites almost every
// buffer fully; the shifts histogram of start-round counts and the
// hash-table slots are cleared explicitly, and contraction's n-wide idx map
// is read only at entries it wrote).
//
// Ownership rules: a buffer obtained from Acquire is exclusively owned
// until passed to the matching Put; Put transfers ownership back to the
// arena, after which any use (or second Put) of the slice is a bug — the
// arena will hand the same memory to the next Acquire. All methods are
// safe for concurrent use, but the intended pattern is coarse: acquire at
// the start of a level or phase, release at its end, never inside inner
// loops.
package workspace

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// numClasses bounds the largest recyclable capacity at 2^(numClasses-1)
// elements; anything larger is serviced by plain make and dropped on Put.
const numClasses = 48

// searchUp is how many classes above the exact fit Acquire scans. Levels
// shrink by at least a constant factor per contraction, so a small window
// lets level k+1 reuse level k's buffers without unbounded internal
// fragmentation (at most 2^searchUp x the requested size).
const searchUp = 3

// DefaultLimit is the default soft cap on bytes retained by an arena.
// Buffers released past the cap are dropped for the GC instead of pooled.
const DefaultLimit = int64(1) << 30

// smallClassMax is the largest capacity class (2^smallClassMax elements)
// treated as "small": release stashes such buffers in a per-class one-slot
// spare that skips the retained-bytes accounting and the limit check, and
// acquire probes that slot before scanning the free lists. The recursion's
// tiny tail levels (which now run serially, see parallel.SerialLevel)
// churn through many sub-2048-element buffers per level; their aggregate
// bytes are noise next to the level-0 working set, so exempting them keeps
// the fast path one probe and makes the cap a statement about big buffers
// only.
const smallClassMax = 11

// bank holds the free buffers of one element type, indexed by
// floor(log2(capacity)); every buffer in class d has capacity >= 2^d.
// spare is the small-class one-slot stash (unused above smallClassMax).
type bank[T any] struct {
	free  [numClasses][][]T
	spare [smallClassMax + 1][]T
}

// classOf returns ceil(log2(n)) clamped to the class range: the lowest
// class whose every buffer is guaranteed to hold n elements.
func classOf(n int) int {
	if n <= 1 {
		return 0
	}
	c := bits.Len(uint(n - 1))
	if c >= numClasses {
		c = numClasses - 1
	}
	return c
}

// Arena is a size-class-bucketed recycler for scratch slices. The zero
// value is not usable; construct with New or NewLimit, or share Default.
type Arena struct {
	mu       sync.Mutex
	limit    int64
	retained int64

	// reused/allocd are cumulative byte counters behind Stats, kept atomic
	// so Acquire's fresh-make path can count outside the mutex.
	reused atomic.Int64
	allocd atomic.Int64

	i32 bank[int32]
	i64 bank[int64]
	u64 bank[uint64]
	f64 bank[float64]
}

// New returns an arena with the default retained-bytes cap.
func New() *Arena { return NewLimit(DefaultLimit) }

// NewLimit returns an arena that stops pooling released buffers once it
// retains limit bytes (limit <= 0 means DefaultLimit). The cap is soft:
// outstanding acquired buffers are not counted, only idle pooled ones.
func NewLimit(limit int64) *Arena {
	if limit <= 0 {
		limit = DefaultLimit
	}
	//parconn:allow hotalloc arena construction is one-time setup
	return &Arena{limit: limit}
}

var defaultArena struct {
	once sync.Once
	a    *Arena
}

// Default returns the shared process-wide arena used when callers do not
// supply their own.
func Default() *Arena {
	defaultArena.once.Do(func() { defaultArena.a = New() })
	return defaultArena.a
}

// acquire pops a pooled buffer able to hold n elements of b's type, or
// allocates one with class-rounded capacity so it recycles cleanly.
func acquire[T any](a *Arena, b *bank[T], elemSize int64, n int) []T {
	if n <= 0 {
		return nil
	}
	c := classOf(n)
	top := min(c+searchUp+1, numClasses)
	a.mu.Lock()
	for d := c; d < top; d++ {
		// Small-class spare first: it holds the most recently released
		// buffer of class d, unaccounted in retained.
		if d <= smallClassMax {
			if s := b.spare[d]; s != nil {
				b.spare[d] = nil
				a.mu.Unlock()
				a.reused.Add(int64(cap(s)) * elemSize)
				return s[:n]
			}
		}
		if k := len(b.free[d]); k > 0 {
			s := b.free[d][k-1]
			b.free[d][k-1] = nil
			b.free[d] = b.free[d][:k-1]
			a.retained -= int64(cap(s)) * elemSize
			a.mu.Unlock()
			a.reused.Add(int64(cap(s)) * elemSize)
			return s[:n]
		}
	}
	a.mu.Unlock()
	capacity := 1 << c
	if capacity < n {
		capacity = n // request beyond the largest class
	}
	a.allocd.Add(int64(capacity) * elemSize)
	//parconn:allow hotalloc the documented fallback make when no pooled buffer fits; warm arenas serve from the free lists
	return make([]T, n, capacity)
}

// release returns s to the pool, or drops it if the arena is at its
// retained-bytes cap or s is empty.
func release[T any](a *Arena, b *bank[T], elemSize int64, s []T) {
	c := cap(s)
	if c == 0 {
		return
	}
	size := int64(c) * elemSize
	d := bits.Len(uint(c)) - 1
	if d >= numClasses {
		d = numClasses - 1
	}
	a.mu.Lock()
	if d <= smallClassMax && b.spare[d] == nil {
		// Threshold-aware release: small buffers park in the spare slot,
		// exempt from the retained cap (a full arena still recycles them).
		b.spare[d] = s[:0]
		a.mu.Unlock()
		return
	}
	if a.retained+size > a.limit {
		a.mu.Unlock()
		return
	}
	a.retained += size
	//parconn:allow hotalloc free-list growth amortizes; the steady state reuses the list's capacity
	b.free[d] = append(b.free[d], s[:0])
	a.mu.Unlock()
}

// Int32 returns an exclusively owned scratch []int32 of length n with
// UNSPECIFIED contents.
func (a *Arena) Int32(n int) []int32 { return acquire(a, &a.i32, 4, n) }

// PutInt32 releases a buffer obtained from Int32 back to the arena.
func (a *Arena) PutInt32(s []int32) { release(a, &a.i32, 4, s) }

// Int64 returns an exclusively owned scratch []int64 of length n with
// UNSPECIFIED contents.
func (a *Arena) Int64(n int) []int64 { return acquire(a, &a.i64, 8, n) }

// PutInt64 releases a buffer obtained from Int64 back to the arena.
func (a *Arena) PutInt64(s []int64) { release(a, &a.i64, 8, s) }

// Uint64 returns an exclusively owned scratch []uint64 of length n with
// UNSPECIFIED contents.
func (a *Arena) Uint64(n int) []uint64 { return acquire(a, &a.u64, 8, n) }

// PutUint64 releases a buffer obtained from Uint64 back to the arena.
func (a *Arena) PutUint64(s []uint64) { release(a, &a.u64, 8, s) }

// Float64 returns an exclusively owned scratch []float64 of length n with
// UNSPECIFIED contents.
func (a *Arena) Float64(n int) []float64 { return acquire(a, &a.f64, 8, n) }

// PutFloat64 releases a buffer obtained from Float64 back to the arena.
func (a *Arena) PutFloat64(s []float64) { release(a, &a.f64, 8, s) }

// Retained returns the bytes currently held in the arena's free lists
// (idle buffers only; outstanding acquisitions and the small-class spare
// slots are unaccounted).
func (a *Arena) Retained() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.retained
}

// Stats reports the cumulative bytes served from the free lists (reused)
// and freshly allocated (allocated) over the arena's lifetime. Callers
// wanting per-run numbers difference two snapshots.
func (a *Arena) Stats() (reused, allocated int64) {
	return a.reused.Load(), a.allocd.Load()
}

// Reset drops every pooled buffer, returning the arena to its initial
// empty state. Outstanding buffers remain valid and may still be Put.
func (a *Arena) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.i32 = bank[int32]{}
	a.i64 = bank[int64]{}
	a.u64 = bank[uint64]{}
	a.f64 = bank[float64]{}
	a.retained = 0
}
