package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// A Pool is a long-lived fork-join scheduler: a fixed set of worker
// goroutines parked on a channel, woken per parallel section and reused
// across calls. It replaces the spawn-per-call scheduling this package
// started with — a BFS round over a small frontier costs one channel send
// per woken helper instead of one goroutine spawn per worker, and sub-grain
// loops take a serial fast path that never wakes anyone.
//
// Wake protocol. Every parallel section builds one task holding the loop
// body and an atomic block cursor. The caller enqueues up to procs-1
// wake-up references to the task (non-blocking: a full queue just means
// fewer helpers), then runs the claim loop itself, so a section completes
// even if no helper ever arrives — which also makes nested sections (e.g.
// the high-degree edge-parallel path inside a BFS round) deadlock-free by
// construction. Parked workers that dequeue the task join it by
// incrementing the active count in its state word, run the same claim loop,
// and decrement on the way out. When the caller finishes claiming it sets
// the closed bit: late workers that dequeue a closed task drop it without
// running, and the last active helper to leave a closed task signals the
// caller's completion channel. The state word is the only rendezvous: low
// bits count active helpers, one high bit is "closed".
//
// Callers may request more parallelism than the pool holds (tests do, to
// exercise real interleavings on small hosts); the excess is served by
// transient goroutines with the same join protocol, preserving the
// pre-pool semantics that procs is honored exactly.
type Pool struct {
	procs    int
	jobs     chan *task
	quit     chan struct{}
	wg       sync.WaitGroup
	joins    atomic.Int64 // cumulative helpers that joined a section; see Joins
	sections atomic.Int64 // cumulative sections that forked; see Sections
}

// closedBit marks a task whose caller has finished claiming blocks; the low
// 32 bits of the state word count helpers currently inside the claim loop.
const closedBit = int64(1) << 32

// task is one parallel section. Exactly one of fnBlock/fnIdx/fnWorker is
// set; next is the shared block (or chunk) cursor.
type task struct {
	fnBlock  func(lo, hi int)
	fnIdx    func(i int)
	fnWorker func(worker, lo, hi int)

	n, grain int
	nblocks  int
	next     atomic.Int64
	state    atomic.Int64
	done     chan struct{}
	joins    *atomic.Int64 // the owning pool's join counter
}

// run claims blocks until none remain. It is executed by the caller and by
// every helper that joined the task.
func (t *task) run() {
	switch {
	case t.fnBlock != nil:
		for {
			b := int(t.next.Add(1)) - 1
			if b >= t.nblocks {
				return
			}
			lo := b * t.grain
			hi := min(lo+t.grain, t.n)
			t.fnBlock(lo, hi)
		}
	case t.fnIdx != nil:
		for {
			b := int(t.next.Add(1)) - 1
			if b >= t.nblocks {
				return
			}
			lo := b * t.grain
			hi := min(lo+t.grain, t.n)
			for i := lo; i < hi; i++ {
				t.fnIdx(i)
			}
		}
	default:
		// Chunk index doubles as the worker id: indices are dense in
		// [0, nblocks) and each is claimed exactly once, whichever
		// participant ends up running it.
		for {
			w := int(t.next.Add(1)) - 1
			if w >= t.nblocks {
				return
			}
			t.fnWorker(w, t.n*w/t.nblocks, t.n*(w+1)/t.nblocks)
		}
	}
}

// help is the worker side of the wake protocol: join unless the task is
// already closed, run the claim loop, and signal the caller when leaving a
// closed task as its last active helper.
func (t *task) help() {
	for {
		s := t.state.Load()
		if s&closedBit != 0 {
			return // stale wake-up: the section already completed
		}
		if t.state.CompareAndSwap(s, s+1) {
			break
		}
	}
	t.joins.Add(1)
	t.run()
	if t.state.Add(-1) == closedBit {
		t.done <- struct{}{}
	}
}

// NewPool returns a pool able to serve procs-wide parallel sections from
// parked workers (procs <= 0 means GOMAXPROCS). It spawns procs-1 workers;
// the goroutine invoking a section is always the procs-th participant.
// Close releases the workers.
//
//parconn:allow hotalloc one-time pool construction; the workers it spawns persist and are reused by every section
func NewPool(procs int) *Pool {
	procs = Procs(procs)
	p := &Pool{
		procs: procs,
		jobs:  make(chan *task, 8*procs),
		quit:  make(chan struct{}),
	}
	p.wg.Add(procs - 1)
	for i := 1; i < procs; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case t := <-p.jobs:
			t.help()
		case <-p.quit:
			return
		}
	}
}

// Procs returns the parallelism the pool was sized for.
func (p *Pool) Procs() int { return p.procs }

// Joins reports the cumulative number of helpers (parked workers and
// transient oversubscription goroutines) that joined a parallel section on
// this pool. Serial fast paths never create a task, so a run's join delta
// of zero means no section ever went parallel. Callers wanting per-run
// numbers difference two snapshots.
func (p *Pool) Joins() int64 { return p.joins.Load() }

// Sections reports the cumulative number of parallel sections this pool
// ran, that is, calls that forked rather than taking a serial fast path.
// Each one costs a fixed SectionAllocs heap allocations, so a test can
// count a run's allocations independently of how many sections the grain
// rule forked.
func (p *Pool) Sections() int64 { return p.sections.Load() }

// SectionAllocs is the fixed heap-allocation cost of one parallel section
// whose participants all come from the pool: its task and its done channel.
const SectionAllocs = 2

// Close stops the pool's parked workers and waits for them to exit. It must
// only be called once, after all sections using the pool have returned.
func (p *Pool) Close() {
	close(p.quit)
	p.wg.Wait()
}

// exec runs t with up to want participants including the caller: helpers
// are woken from the pool first, any remainder beyond the pool's capacity
// is served by transient goroutines (preserving explicit oversubscription),
// and the caller claims blocks alongside them.
//
//parconn:allow hotalloc,blockingcall the per-section join channel, oversubscription helpers, and the final join receive are the scheduler's budgeted section cost; the join parks the submitting goroutine only after its own blocks are done
func (p *Pool) exec(t *task, want int) {
	p.sections.Add(1)
	t.done = make(chan struct{}, 1)
	t.joins = &p.joins
	helpers := want - 1
	pooled := min(helpers, p.procs-1)
	enqueued := 0
	for ; enqueued < pooled; enqueued++ {
		select {
		case p.jobs <- t:
		default:
			// Queue full (pool saturated by other sections): proceed with
			// the helpers enqueued so far; the caller covers the rest.
			pooled = enqueued
		}
	}
	for i := enqueued; i < helpers; i++ {
		go t.help()
	}
	t.run()
	if t.state.Add(closedBit) != closedBit {
		<-t.done // helpers still inside the claim loop; wait for the last
	}
}

// defaultPool is the shared pool Default returns, created on first use and
// sized to GOMAXPROCS at that moment.
var defaultPool struct {
	once sync.Once
	p    *Pool
}

// Default returns the shared pool an entry point runs on when its caller
// supplies none. It is created on first use, sized to
// runtime.GOMAXPROCS(0), and never closed.
func Default() *Pool {
	defaultPool.once.Do(func() {
		defaultPool.p = NewPool(runtime.GOMAXPROCS(0))
	})
	return defaultPool.p
}
