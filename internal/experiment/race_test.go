//go:build race

package experiment

// raceEnabled reports a -race build, where sync.Pool drops pooled rigs
// at random and allocation counts stop measuring the run.
const raceEnabled = true
