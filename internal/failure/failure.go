// Package failure classifies arrestment outcomes against the system
// specification (paper Section 4.2, from MIL-A-38202C): a run fails if
//
//  1. retardation ever exceeds 3.5 g,
//  2. the retardation force ever exceeds F_max, a function of aircraft
//     mass and engaging velocity, or
//  3. the aircraft is not arrested within 335 m of runway.
//
// The exact F_max curve of the MIL specification is not public; we
// substitute a curve of the same form — proportional to the force needed
// for a nominal-distance stop, with floor and ceiling — documented in
// DESIGN.md §5. Every fault-free test case passes with margin; what
// matters for reproduction is that injected errors can push runs across
// the limits so that c_fail/c_nofail (Figure 3) are meaningful.
package failure

import (
	"fmt"
	"strings"

	"repro/internal/physics"
)

// Violation identifies one violated constraint.
type Violation int

// Constraint violations, numbered as in the paper's Section 4.2 list.
const (
	ViolationRetardation Violation = iota + 1
	ViolationForce
	ViolationDistance
	ViolationNotArrested
)

// String implements fmt.Stringer.
func (v Violation) String() string {
	switch v {
	case ViolationRetardation:
		return "retardation limit exceeded (r >= 3.5 g)"
	case ViolationForce:
		return "retardation force limit exceeded (F_ret >= F_max)"
	case ViolationDistance:
		return "stopping distance exceeded (d >= 335 m)"
	case ViolationNotArrested:
		return "aircraft not arrested within the observation window"
	default:
		return "unknown violation"
	}
}

// Limits holds the specification constraints.
type Limits struct {
	// MaxRetardationG is the retardation limit in g (3.5 per spec).
	MaxRetardationG float64
	// MaxStoppingDistanceM is the runway limit in meters (335 per spec).
	MaxStoppingDistanceM float64
	// NominalStopDistanceM parameterizes the F_max curve: the force
	// needed to stop in this distance, times ForceMargin, is allowed.
	NominalStopDistanceM float64
	// ForceMargin scales the nominal stopping force to get F_max.
	ForceMargin float64
	// MinForceG and MaxForceG floor/cap F_max in units of aircraft
	// weight.
	MinForceG, MaxForceG float64
}

// DefaultLimits returns the specification limits used throughout the
// reproduction.
func DefaultLimits() Limits {
	return Limits{
		MaxRetardationG:      3.5,
		MaxStoppingDistanceM: 335,
		NominalStopDistanceM: 250,
		ForceMargin:          1.8,
		MinForceG:            1.2,
		MaxForceG:            3.2,
	}
}

// MaxRetardForceN returns F_max for an aircraft of the given mass and
// engaging velocity: the maximum allowed retardation force.
func (l Limits) MaxRetardForceN(massKg, engageVelocityMps float64) float64 {
	// Force for a constant-deceleration stop in NominalStopDistanceM.
	nominal := massKg * engageVelocityMps * engageVelocityMps / (2 * l.NominalStopDistanceM)
	f := l.ForceMargin * nominal
	if min := l.MinForceG * massKg * physics.StandardGravity; f < min {
		f = min
	}
	if max := l.MaxForceG * massKg * physics.StandardGravity; f > max {
		f = max
	}
	return f
}

// Report is the outcome classification of one arrestment run.
type Report struct {
	// Violations lists every violated constraint (empty on success).
	Violations []Violation
	// Arrested reports whether the aircraft stopped inside the window.
	Arrested bool
	// MaxRetardationG, MaxForceN and StoppingDistanceM are the observed
	// extremes.
	MaxRetardationG   float64
	MaxForceN         float64
	StoppingDistanceM float64
	// ForceLimitN is the F_max applied to this run.
	ForceLimitN float64
	// ArrestTimeS is the plant time at classification.
	ArrestTimeS float64
}

// Failed reports whether any constraint was violated.
func (r Report) Failed() bool { return len(r.Violations) > 0 }

// String summarizes the report on one line.
func (r Report) String() string {
	if !r.Failed() {
		return fmt.Sprintf("OK: arrested in %.1f m, max %.2f g, max force %.0f kN",
			r.StoppingDistanceM, r.MaxRetardationG, r.MaxForceN/1000)
	}
	parts := make([]string, 0, len(r.Violations))
	for _, v := range r.Violations {
		parts = append(parts, v.String())
	}
	return "FAILURE: " + strings.Join(parts, "; ")
}

// Classify evaluates a finished (or timed-out) run against the limits.
// arrested reports whether the plant reached standstill within the
// observation window.
func Classify(pl *physics.Plant, arrested bool, l Limits) Report {
	p := pl.Params()
	rep := Report{
		Arrested:          arrested,
		MaxRetardationG:   pl.MaxRetardationG(),
		MaxForceN:         pl.MaxForceN(),
		StoppingDistanceM: pl.Distance(),
		ForceLimitN:       l.MaxRetardForceN(p.MassKg, p.EngageVelocityMps),
		ArrestTimeS:       pl.TimeS(),
	}
	if rep.MaxRetardationG >= l.MaxRetardationG {
		rep.Violations = append(rep.Violations, ViolationRetardation)
	}
	if rep.MaxForceN >= rep.ForceLimitN {
		rep.Violations = append(rep.Violations, ViolationForce)
	}
	if rep.StoppingDistanceM >= l.MaxStoppingDistanceM {
		rep.Violations = append(rep.Violations, ViolationDistance)
	}
	if !arrested {
		rep.Violations = append(rep.Violations, ViolationNotArrested)
	}
	return rep
}
