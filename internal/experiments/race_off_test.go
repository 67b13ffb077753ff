//go:build !race

package experiments

// raceEnabled reports a -race build, under which the golden comparison is
// skipped (the race detector makes the full suite several times slower).
const raceEnabled = false
