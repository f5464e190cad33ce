// Package blockingcall is a parconnvet test fixture: every line carrying a
// `want` comment must be flagged by the blockingcall check, every other
// line must stay clean. Closures passed to the parallel entry points root
// the parallel-context set; coordinator code stays outside it.
package blockingcall

import (
	"fmt"
	"sync"
	"time"

	"parconn/internal/parallel"
)

// pool stands for the run's worker pool: the fixture is type-checked and
// analyzed, never run.
var pool *parallel.Pool

// run's closure is a parallel-context root; everything it reaches is held
// to the wait-free contract.
func run(procs, n int, ch chan int, mu *sync.Mutex) {
	pool.Blocks(procs, n, 0, func(lo, hi int) {
		ch <- lo  // want "channel send may block"
		v := <-ch // want "channel receive may block"
		_ = v
		time.Sleep(time.Millisecond) // want "time.Sleep parks the worker"
		mu.Lock()                    // want "sync.Mutex.Lock may block"
		fmt.Println(lo)              // want "fmt.Println writes to a stream"
		helper(ch)
	})
}

// helper is reachable from the parallel closure above.
func helper(ch chan int) {
	select { // want "select without default blocks"
	case v := <-ch: // want "channel receive may block"
		_ = v
	}
	for range ch { // want "ranging over a channel blocks"
		break
	}
}

// tryEnqueue is the sanctioned non-blocking pattern: a select with a
// default clause is exempt along with its communication operands.
func tryEnqueue(procs int, ch chan int) {
	pool.For(procs, 1, func(int) {
		select {
		case ch <- 1: // ok: the enclosing select has a default clause
		default:
		}
	})
}

// machine binds its closure to a field before passing it to an entry
// point; litAssigns routes the binding back to the literal.
type machine struct {
	fn func(lo, hi int)
}

func newMachine(ch chan int) *machine {
	m := &machine{}
	m.fn = func(lo, hi int) {
		<-ch // want "channel receive may block"
	}
	return m
}

func (m *machine) launch(procs, n int) {
	pool.Blocks(procs, n, 0, m.fn)
}

// coordinator code off the parallel context may block freely.
func coordinator(ch chan int) int {
	return <-ch // ok: not in the parallel-context set
}
