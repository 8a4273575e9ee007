// Package erm implements error recovery mechanisms: containment
// wrappers on module outputs in the spirit of the wrappers the paper
// cites (Salles et al., "MetaKernels and Fault Containment Wrappers")
// and places with guideline R2. A wrapper intercepts every write to a
// guarded signal, checks it against a plausibility specification (the
// same behaviour vocabulary as the executable assertions in
// internal/ea), and on violation substitutes a recovered value instead
// of letting the implausible one propagate.
//
// The paper evaluates placement of detection mechanisms; recovery
// placement is discussed (R2, Section 9) but not measured. The
// experiment layer's RecoveryStudy quantifies it on the reproduction:
// failure rates of the internal error model with and without wrappers.
package erm

import (
	"fmt"
	"sort"

	"repro/internal/model"
)

// Policy selects how a wrapper recovers from an implausible write.
type Policy int

// Recovery policies.
const (
	// PolicyHoldLast keeps the previous (plausible) value of the signal.
	PolicyHoldLast Policy = iota + 1
	// PolicyClamp forces the value to the nearest plausible one: into
	// [Min, Max] and within the rate limits of the previous value.
	PolicyClamp
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyHoldLast:
		return "hold-last"
	case PolicyClamp:
		return "clamp"
	default:
		return "unknown policy"
	}
}

// Spec parameterizes one wrapper.
type Spec struct {
	// Name labels the wrapper, e.g. "ERM-SetValue".
	Name string
	// Signal is the guarded signal; only writes to it are filtered.
	Signal model.SignalID
	// Min and Max bound plausible values.
	Min, Max model.Word
	// MaxUp and MaxDown bound plausible per-write changes; zero means
	// no rate constraint in that direction.
	MaxUp, MaxDown model.Word
	// Policy selects the recovery action.
	Policy Policy
	// WarmupWrites disables the rate check for the first n writes.
	WarmupWrites int
}

// Validate reports whether the spec is well formed.
func (s Spec) Validate() error {
	if s.Signal == "" {
		return fmt.Errorf("erm: spec %q has no signal", s.Name)
	}
	if s.Max < s.Min {
		return fmt.Errorf("erm: spec %q: Max %d < Min %d", s.Name, s.Max, s.Min)
	}
	if s.MaxUp < 0 || s.MaxDown < 0 {
		return fmt.Errorf("erm: spec %q: negative rate limits", s.Name)
	}
	if s.Policy != PolicyHoldLast && s.Policy != PolicyClamp {
		return fmt.Errorf("erm: spec %q: unknown policy %d", s.Name, int(s.Policy))
	}
	return nil
}

// Wrapper is the runtime instance of a Spec.
type Wrapper struct {
	spec Spec

	prev        model.Word
	initialized bool
	writes      int

	recoveries int
	firstMs    int64
	nowMs      int64
}

// NewWrapper instantiates a wrapper.
func NewWrapper(spec Spec) (*Wrapper, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	w := &Wrapper{spec: spec}
	w.Reset()
	return w, nil
}

// Reset clears run-time state and accounting.
func (w *Wrapper) Reset() {
	w.prev = 0
	w.initialized = false
	w.writes = 0
	w.recoveries = 0
	w.firstMs = -1
	w.nowMs = 0
}

// Hook is a scheduler hook keeping the wrapper's clock for latency
// accounting; install as a pre-slot hook.
func (w *Wrapper) Hook(nowMs int64) { w.nowMs = nowMs }

// Filter returns the bus write filter realizing the wrapper.
func (w *Wrapper) Filter() model.WriteFilter {
	return func(port model.PortRef, sig model.SignalID, old, proposed model.Word) model.Word {
		if sig != w.spec.Signal {
			return proposed
		}
		return w.apply(proposed)
	}
}

// apply checks one write and returns the (possibly recovered) value.
func (w *Wrapper) apply(proposed model.Word) model.Word {
	defer func() { w.writes++ }()
	s := w.spec

	plausible := proposed >= s.Min && proposed <= s.Max
	if plausible && w.initialized && w.writes >= s.WarmupWrites {
		d := proposed - w.prev
		if s.MaxUp > 0 && d > s.MaxUp {
			plausible = false
		}
		if s.MaxDown > 0 && -d > s.MaxDown {
			plausible = false
		}
	}
	if plausible {
		w.prev = proposed
		w.initialized = true
		return proposed
	}

	w.recoveries++
	if w.firstMs < 0 {
		w.firstMs = w.nowMs
	}
	var recovered model.Word
	switch s.Policy {
	case PolicyHoldLast:
		recovered = w.prev
	case PolicyClamp:
		recovered = proposed
		if recovered < s.Min {
			recovered = s.Min
		}
		if recovered > s.Max {
			recovered = s.Max
		}
		if w.initialized {
			if s.MaxUp > 0 && recovered-w.prev > s.MaxUp {
				recovered = w.prev + s.MaxUp
			}
			if s.MaxDown > 0 && w.prev-recovered > s.MaxDown {
				recovered = w.prev - s.MaxDown
			}
		}
	}
	// The recovered value becomes the new reference.
	w.prev = recovered
	w.initialized = true
	return recovered
}

// Recoveries returns how many writes were recovered this run.
func (w *Wrapper) Recoveries() int { return w.recoveries }

// Bank deploys a set of wrappers on a bus.
type Bank struct {
	wrappers []*Wrapper
}

// NewBank validates and instantiates wrappers for the specs, installing
// their filters and clock hooks on the bus via the provided installers.
func NewBank(bus *model.Bus, specs []Spec) (*Bank, error) {
	b := &Bank{}
	seen := make(map[string]struct{}, len(specs))
	for _, s := range specs {
		if _, ok := bus.System().Signal(s.Signal); !ok {
			return nil, fmt.Errorf("erm: spec %q guards unknown signal %q", s.Name, s.Signal)
		}
		if _, dup := seen[s.Name]; dup {
			return nil, fmt.Errorf("erm: duplicate wrapper name %q", s.Name)
		}
		seen[s.Name] = struct{}{}
		w, err := NewWrapper(s)
		if err != nil {
			return nil, err
		}
		bus.OnWriteFilter(w.Filter())
		b.wrappers = append(b.wrappers, w)
	}
	return b, nil
}

// Hook fans the scheduler clock out to every wrapper; install as a
// pre-slot hook.
func (b *Bank) Hook(nowMs int64) {
	for _, w := range b.wrappers {
		w.Hook(nowMs)
	}
}

// Reset clears every wrapper.
func (b *Bank) Reset() {
	for _, w := range b.wrappers {
		w.Reset()
	}
}

// Recovered reports whether any wrapper recovered a write this run.
func (b *Bank) Recovered() bool {
	for _, w := range b.wrappers {
		if w.Recoveries() > 0 {
			return true
		}
	}
	return false
}

// RecoveredBy returns the names of wrappers that recovered, sorted.
func (b *Bank) RecoveredBy() []string {
	var out []string
	for _, w := range b.wrappers {
		if w.Recoveries() > 0 {
			out = append(out, w.spec.Name)
		}
	}
	sort.Strings(out)
	return out
}

// TotalRecoveries sums recoveries across the bank.
func (b *Bank) TotalRecoveries() int {
	total := 0
	for _, w := range b.wrappers {
		total += w.Recoveries()
	}
	return total
}
