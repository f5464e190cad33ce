// Package hotalloc is a parconnvet test fixture: every line carrying a
// `want` comment must be flagged by the hotalloc check, every other line
// must stay clean. The //parconn:hotpath directive below roots the
// fixture's hot-path set; cold stays outside it.
package hotalloc

import (
	"fmt"

	"parconn/internal/parallel"
)

// pool stands for the run's worker pool: the fixture is type-checked and
// analyzed, never run.
var pool *parallel.Pool

type config struct{ n int }

// level plays the per-level decomposition loop: the hot-path root.
//
//parconn:hotpath
func level(procs, n int) error {
	buf := make([]int32, n) // want "make allocates"
	p := new(int)           // want "new allocates"
	*p = n
	// Closures handed to the parallel entry points are the scheduler's
	// budgeted per-section cost and are exempt even though they capture.
	pool.For(procs, n, func(i int) { buf[i] = 0 })
	helper(buf)
	usesClosure(n)
	if n < 0 {
		return fmt.Errorf("bad n: %d", n) // want "boxed into interface"
	}
	return nil
}

// helper is reachable from the root, so its allocations are charged too.
func helper(buf []int32) {
	xs := []int64{1, 2}              // want "slice literal allocates"
	xs = append(xs, int64(len(buf))) // want "append may grow"
	m := map[int]int{}               // want "map literal allocates"
	_ = m
	_ = xs
	go drain() // want "go statement allocates"
}

// drain is reached through the go statement above: spawned work is still
// charged to the hot path.
func drain() {
	s := "a" + name()    // want "string concatenation allocates"
	b := []byte(s)       // want "string-to-slice conversion allocates"
	_ = string(b)        // want "slice-to-string conversion allocates"
	cfg := &config{n: 1} // want "address of composite literal allocates"
	_ = cfg
}

func name() string { return "x" }

// usesClosure hands a capturing closure to an ordinary (non-entry-point)
// call, which materializes a heap environment at the call site.
func usesClosure(n int) {
	each(func(i int) { // want "capturing closure allocates"
		n += i
	})
	_ = n
}

func each(f func(int)) { f(0) }

// cold is referenced by nobody on the hot path; its allocations are free.
func cold(n int) []int32 {
	return make([]int32, n) // ok: not reachable from a //parconn:hotpath root
}
