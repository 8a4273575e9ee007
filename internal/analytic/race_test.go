//go:build race

package analytic

// raceEnabled reports a -race build, where sync.Pool drops pooled
// powers tables at random and allocation counts stop measuring the
// solver.
const raceEnabled = true
