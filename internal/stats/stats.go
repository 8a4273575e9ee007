// Package stats provides the estimators used when reducing
// fault-injection campaigns: proportion estimates with confidence
// intervals (coverage estimation in the style of Powell et al. [14]) and
// simple summary statistics.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Proportion is a Bernoulli estimate: successes out of trials.
type Proportion struct {
	Successes int
	Trials    int
}

// Add accumulates one trial.
func (p *Proportion) Add(success bool) {
	p.Trials++
	if success {
		p.Successes++
	}
}

// AddN accumulates n identical trials. Equivalence-class pruning uses
// this to credit one representative run with the outcome of the whole
// class: n trials with the representative's result are statistically
// exchangeable with the class members because class membership proves
// the outcomes equal. Non-positive n is a no-op.
func (p *Proportion) AddN(success bool, n int) {
	if n <= 0 {
		return
	}
	p.Trials += n
	if success {
		p.Successes += n
	}
}

// Estimate returns the point estimate (0 for an empty sample).
func (p Proportion) Estimate() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.Trials)
}

// WilsonCI returns the Wilson score interval at the given z quantile
// (1.96 for 95%). Preferred over the normal approximation because
// coverage estimates sit near 0 and 1, where the Wald interval
// degenerates.
func (p Proportion) WilsonCI(z float64) (lo, hi float64) {
	if p.Trials == 0 {
		return 0, 1
	}
	n := float64(p.Trials)
	ph := p.Estimate()
	z2 := z * z
	den := 1 + z2/n
	center := (ph + z2/(2*n)) / den
	half := z / den * math.Sqrt(ph*(1-ph)/n+z2/(4*n*n))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// StopRule is a sequential early-stopping criterion for Bernoulli
// streams: stop sampling once the Wilson score interval at quantile Z
// is tighter than ±HalfWidth, but never before MinTrials trials. The
// floor guards against the interval collapsing on an early run of
// identical outcomes (at 0/n or n/n the Wilson interval narrows like
// z²/n, so a rare-event stream could otherwise stop long before the
// first success had a chance to appear).
type StopRule struct {
	// Z is the interval quantile (1.96 for 95%).
	Z float64
	// HalfWidth is the target half-width; a rule with HalfWidth <= 0
	// never converges (sampling runs the full grid).
	HalfWidth float64
	// MinTrials is the floor below which the rule never fires.
	MinTrials int
}

// Converged reports whether sampling of the stream may stop.
func (r StopRule) Converged(p Proportion) bool {
	if r.HalfWidth <= 0 || p.Trials < r.MinTrials {
		return false
	}
	lo, hi := p.WilsonCI(r.Z)
	return hi-lo <= 2*r.HalfWidth
}

// String renders "123/456 = 0.270".
func (p Proportion) String() string {
	return fmt.Sprintf("%d/%d = %.3f", p.Successes, p.Trials, p.Estimate())
}

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns 0 for an empty
// slice and does not modify its input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	pos := q * float64(len(cp)-1)
	lo := int(pos)
	if lo == len(cp)-1 {
		return cp[lo]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[lo+1]*frac
}
