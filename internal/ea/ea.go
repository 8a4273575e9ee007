// Package ea implements generic parameterized Executable Assertions —
// the error detection mechanisms whose placement the paper studies. The
// assertion classes follow Hiller's DSN 2000 taxonomy for signals in
// embedded control software: behaviour-constrained continuous signals
// (range + change-rate), monotonic counters, cyclic sequence signals, and
// booleans (for which "the selected EA's [are] not geared", Table 2 —
// kept to make that limitation executable).
//
// Every assertion carries a resource footprint: ROM bytes (constant
// parameters defining allowed behaviour), RAM bytes (run-time state) and
// execution cycles per invocation. The byte figures for the target's
// seven assertions are calibrated to Table 3 of the paper (we cannot
// recompile the authors' MC68HC11 binaries, so we adopt their measured
// footprints as the cost model; see DESIGN.md §5).
package ea

import (
	"fmt"

	"repro/internal/model"
)

// Kind selects the assertion class.
type Kind int

// Assertion classes.
const (
	// KindBehaviour checks a continuous signal: static range [Min, Max]
	// plus change-rate limits MaxUp/MaxDown per check period, with an
	// exemption for saturation jumps to Min or Max (mode switches in
	// control software legitimately slam a setpoint to a rail).
	KindBehaviour Kind = iota + 1
	// KindCounter checks a (wrapping) counter: the per-period increment,
	// computed modulo the signal width, must lie in [MinStep, MaxStep].
	KindCounter
	// KindSequence checks a cyclic sequence signal of period Modulo that
	// advances StepPerPeriod per check, tolerating a cyclic distance of
	// up to AllowExtra from the expected value in either direction
	// (legitimate phase adjustments and scheduling jitter).
	KindSequence
	// KindBool checks the 0/1 domain of a boolean signal. On a 1-bit
	// channel it can never fire — executable evidence for the paper's
	// remark that these EAs are ineffective on booleans.
	KindBool
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindBehaviour:
		return "behaviour"
	case KindCounter:
		return "counter"
	case KindSequence:
		return "sequence"
	case KindBool:
		return "bool"
	default:
		return "unknown"
	}
}

// Spec parameterizes one executable assertion guarding one signal.
type Spec struct {
	// Name labels the assertion, e.g. "EA1".
	Name string
	// Signal is the guarded signal.
	Signal model.SignalID
	// Kind selects the assertion class.
	Kind Kind

	// Min and Max bound KindBehaviour values.
	Min, Max model.Word
	// MaxUp and MaxDown bound KindBehaviour per-period changes.
	MaxUp, MaxDown model.Word

	// MinStep and MaxStep bound KindCounter per-period increments.
	MinStep, MaxStep model.Word
	// WrapWidth is the counter width in bits for KindCounter delta
	// arithmetic.
	WrapWidth uint8

	// Modulo, StepPerPeriod and AllowExtra parameterize KindSequence.
	Modulo, StepPerPeriod, AllowExtra model.Word

	// WarmupChecks suppresses verdicts for the first n checks, letting
	// rate/sequence state initialize.
	WarmupChecks int

	// Cost overrides the derived resource footprint when non-zero.
	Cost Cost
}

// Cost is the resource footprint of one assertion.
type Cost struct {
	ROMBytes int
	RAMBytes int
	// Cycles is the execution cost per invocation in CPU cycles.
	Cycles int
}

// IsZero reports whether no explicit cost was set.
func (c Cost) IsZero() bool { return c == Cost{} }

// derivedCost returns the default footprint per class. ROM/RAM figures
// for behaviour/counter/sequence follow the per-EA values in Table 3 of
// the paper; cycle counts are synthetic but proportional to the number of
// comparisons each class performs.
func derivedCost(k Kind) Cost {
	switch k {
	case KindBehaviour:
		return Cost{ROMBytes: 50, RAMBytes: 14, Cycles: 180}
	case KindCounter:
		return Cost{ROMBytes: 25, RAMBytes: 13, Cycles: 95}
	case KindSequence:
		return Cost{ROMBytes: 37, RAMBytes: 13, Cycles: 120}
	case KindBool:
		return Cost{ROMBytes: 12, RAMBytes: 2, Cycles: 40}
	default:
		return Cost{}
	}
}

// Validate reports whether the spec is well formed.
func (s Spec) Validate() error {
	if s.Signal == "" {
		return fmt.Errorf("ea: spec %q has no signal", s.Name)
	}
	switch s.Kind {
	case KindBehaviour:
		if s.Max < s.Min {
			return fmt.Errorf("ea: spec %q: Max %d < Min %d", s.Name, s.Max, s.Min)
		}
		if s.MaxUp < 0 || s.MaxDown < 0 {
			return fmt.Errorf("ea: spec %q: negative rate limits", s.Name)
		}
	case KindCounter:
		if s.WrapWidth < 1 || s.WrapWidth > 32 {
			return fmt.Errorf("ea: spec %q: WrapWidth %d out of range", s.Name, s.WrapWidth)
		}
		if s.MaxStep < s.MinStep {
			return fmt.Errorf("ea: spec %q: MaxStep %d < MinStep %d", s.Name, s.MaxStep, s.MinStep)
		}
	case KindSequence:
		if s.Modulo < 2 {
			return fmt.Errorf("ea: spec %q: Modulo %d must be >= 2", s.Name, s.Modulo)
		}
		if s.StepPerPeriod < 0 || s.AllowExtra < 0 {
			return fmt.Errorf("ea: spec %q: negative sequence parameters", s.Name)
		}
	case KindBool:
		// No parameters.
	default:
		return fmt.Errorf("ea: spec %q: unknown kind %d", s.Name, int(s.Kind))
	}
	return nil
}

// Assertion is the runtime instance of a Spec: stateful, reusable across
// runs via Reset.
type Assertion struct {
	spec Spec
	cost Cost

	prev        model.Word
	initialized bool
	checks      int

	detections int
	firstMs    int64
}

// New instantiates an assertion from a spec.
func New(spec Spec) (*Assertion, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cost := spec.Cost
	if cost.IsZero() {
		cost = derivedCost(spec.Kind)
	}
	a := &Assertion{spec: spec, cost: cost}
	a.Reset()
	return a, nil
}

// Spec returns the assertion's specification.
func (a *Assertion) Spec() Spec { return a.spec }

// Cost returns the assertion's resource footprint.
func (a *Assertion) Cost() Cost { return a.cost }

// Reset clears run-time state and detection accounting.
func (a *Assertion) Reset() {
	a.prev = 0
	a.initialized = false
	a.checks = 0
	a.detections = 0
	a.firstMs = -1
}

// Check evaluates the assertion against the current signal value. It
// returns true when the assertion fires (a violation is detected) and
// updates detection accounting.
func (a *Assertion) Check(v model.Word, nowMs int64) bool {
	defer func() {
		a.prev = v
		a.initialized = true
		a.checks++
	}()

	if a.checks < a.spec.WarmupChecks {
		return false
	}

	violated := false
	switch a.spec.Kind {
	case KindBehaviour:
		violated = a.checkBehaviour(v)
	case KindCounter:
		violated = a.checkCounter(v)
	case KindSequence:
		violated = a.checkSequence(v)
	case KindBool:
		violated = v != 0 && v != 1
	}

	if violated {
		a.detections++
		if a.firstMs < 0 {
			a.firstMs = nowMs
		}
	}
	return violated
}

func (a *Assertion) checkBehaviour(v model.Word) bool {
	s := a.spec
	if v < s.Min || v > s.Max {
		return true
	}
	if !a.initialized {
		return false
	}
	// Saturation exemption: mode switches may slam the signal to a rail.
	if v == s.Min || v == s.Max || a.prev == s.Min || a.prev == s.Max {
		return false
	}
	if d := v - a.prev; d > s.MaxUp || -d > s.MaxDown {
		return true
	}
	return false
}

func (a *Assertion) checkCounter(v model.Word) bool {
	if !a.initialized {
		return false
	}
	mask := (model.Word(1) << a.spec.WrapWidth) - 1
	delta := (v - a.prev) & mask
	return delta < a.spec.MinStep || delta > a.spec.MaxStep
}

func (a *Assertion) checkSequence(v model.Word) bool {
	s := a.spec
	if v < 0 || v >= s.Modulo {
		return true
	}
	if !a.initialized {
		return false
	}
	expected := (a.prev + s.StepPerPeriod) % s.Modulo
	// Cyclic distance from the expected value.
	ahead := ((v-expected)%s.Modulo + s.Modulo) % s.Modulo
	if back := s.Modulo - ahead; back < ahead {
		ahead = back
	}
	return ahead > s.AllowExtra
}

// Detected reports whether the assertion fired at least once — the
// paper's per-run detection criterion ("detected at least once during
// the arrestment").
func (a *Assertion) Detected() bool { return a.detections > 0 }

// FirstDetectionMs returns the time of the first detection, or -1.
func (a *Assertion) FirstDetectionMs() int64 { return a.firstMs }
