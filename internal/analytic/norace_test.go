//go:build !race

package analytic

const raceEnabled = false
