//go:build !race

package serve

// raceEnabled reports whether the race detector is compiled in; see
// race_test.go.
const raceEnabled = false
