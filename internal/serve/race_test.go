//go:build race

package serve

// raceEnabled reports whether the race detector is compiled in; it
// instruments allocations, so allocation pins skip under it.
const raceEnabled = true
