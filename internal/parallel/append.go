package parallel

import "sync/atomic"

// StageCap is the number of values an Appender stages before it reserves a
// batch of slots in the shared output.
const StageCap = 256

// Appender stages the values one block appends to a shared output array
// whose next free slot is an atomic cursor — the paper's shared BFS
// frontier (§4). Appending each value with its own fetch-and-add makes every
// claim bounce the cursor's cache line between cores; an Appender instead
// reserves len(batch) slots with a single Add when its buffer fills and once
// more when the block ends, so the cursor is touched about once per StageCap
// values.
//
// An Appender is block-local: declare one per block invocation (it lives on
// the worker's stack and allocates nothing), Push every value, and Flush
// before the block returns. Values of one Appender land in dst in push
// order, so a serial section (one block) appends exactly as the per-value
// idiom did; across concurrent blocks the order is arbitrary, as it was.
type Appender struct {
	buf    [StageCap]int32
	n      int
	dst    []int32
	cursor *atomic.Int64
}

// NewAppender returns an empty Appender writing to dst at slots reserved
// from cursor. dst must have room for every value appended through cursor.
func NewAppender(dst []int32, cursor *atomic.Int64) Appender {
	return Appender{dst: dst, cursor: cursor}
}

// Push stages v, flushing the buffer first when it is full.
func (a *Appender) Push(v int32) {
	if a.n == StageCap {
		a.Flush()
	}
	a.buf[a.n] = v
	a.n++
}

// Flush reserves one slot per staged value with a single atomic add and
// copies the batch into dst. It is a no-op on an empty buffer.
func (a *Appender) Flush() {
	k := int64(a.n)
	if k == 0 {
		return
	}
	end := a.cursor.Add(k)
	copy(a.dst[end-k:end], a.buf[:k])
	a.n = 0
}
