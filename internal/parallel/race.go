//go:build race

package parallel

// raceEnabled reports whether the race detector is compiled in. Scheduling
// decisions that would narrow goroutine interleaving (Workers capping
// section width at the physical CPU count) are disabled under it, so race
// tests on small CI hosts still exercise genuinely concurrent sections.
const raceEnabled = true
