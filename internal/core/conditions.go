package core

import (
	"fmt"

	"repro/internal/model"
)

// Conditions are project-level dependability requirements on the
// profile, per Section 9 of the paper: "a possible approach to placement
// of EDM's and ERM's may be to set up specific conditions which the
// software must conform to" — a maximum error permeability per module
// (minimum containment), a maximum exposure, and a maximum impact per
// signal. A negative limit disables that condition.
type Conditions struct {
	// MaxModulePermeability bounds every module's relative permeability
	// (its normalized ability to let errors through).
	MaxModulePermeability float64
	// MaxModuleExposure bounds every module's relative exposure.
	MaxModuleExposure float64
	// MaxSignalExposure bounds every signal's error exposure.
	MaxSignalExposure float64
	// MaxSignalImpact bounds every non-output signal's impact on any
	// system output.
	MaxSignalImpact float64
}

// ConformanceKind identifies which condition a finding violates.
type ConformanceKind int

// Conformance finding kinds.
const (
	KindModulePermeability ConformanceKind = iota + 1
	KindModuleExposure
	KindSignalExposure
	KindSignalImpact
)

// String implements fmt.Stringer.
func (k ConformanceKind) String() string {
	switch k {
	case KindModulePermeability:
		return "module permeability"
	case KindModuleExposure:
		return "module exposure"
	case KindSignalExposure:
		return "signal exposure"
	case KindSignalImpact:
		return "signal impact"
	default:
		return "unknown condition"
	}
}

// ConformanceFinding is one violated condition with the remedial advice
// the paper's Section 9 attaches to it.
type ConformanceFinding struct {
	Kind   ConformanceKind
	Module model.ModuleID // set for module-level findings
	Signal model.SignalID // set for signal-level findings
	Value  float64
	Limit  float64
	Advice string
}

// String implements fmt.Stringer.
func (f ConformanceFinding) String() string {
	subject := string(f.Signal)
	if f.Module != "" {
		subject = string(f.Module)
	}
	return fmt.Sprintf("%s of %s = %.3f exceeds limit %.3f: %s",
		f.Kind, subject, f.Value, f.Limit, f.Advice)
}

// CheckConformance evaluates the profile against the conditions and
// returns every violation, module findings first, then signal findings,
// in declaration order.
func CheckConformance(pr *Profile, c Conditions) ([]ConformanceFinding, error) {
	var out []ConformanceFinding
	p := pr.Permeability()
	sys := pr.System()

	for _, mod := range sys.ModuleIDs() {
		if c.MaxModulePermeability >= 0 {
			v, err := p.RelativePermeability(mod)
			if err != nil {
				return nil, err
			}
			if v > c.MaxModulePermeability {
				out = append(out, ConformanceFinding{
					Kind: KindModulePermeability, Module: mod,
					Value: v, Limit: c.MaxModulePermeability,
					Advice: "allocate resources to this module to increase its error containment",
				})
			}
		}
		if c.MaxModuleExposure >= 0 {
			v, err := p.RelativeModuleExposure(mod)
			if err != nil {
				return nil, err
			}
			if v > c.MaxModuleExposure {
				out = append(out, ConformanceFinding{
					Kind: KindModuleExposure, Module: mod,
					Value: v, Limit: c.MaxModuleExposure,
					Advice: "protect this module, or contain the modules responsible for its exposure",
				})
			}
		}
	}

	for _, sp := range pr.Signals() {
		if c.MaxSignalExposure >= 0 && sp.Exposure > c.MaxSignalExposure {
			out = append(out, ConformanceFinding{
				Kind: KindSignalExposure, Signal: sp.Signal,
				Value: sp.Exposure, Limit: c.MaxSignalExposure,
				Advice: "guard this signal, or contain the producing module",
			})
		}
		if c.MaxSignalImpact >= 0 && sp.Kind != model.KindSystemOutput && sp.Impact > c.MaxSignalImpact {
			out = append(out, ConformanceFinding{
				Kind: KindSignalImpact, Signal: sp.Signal,
				Value: sp.Impact, Limit: c.MaxSignalImpact,
				Advice: "error containment from this signal to the system outputs is insufficient",
			})
		}
	}
	return out, nil
}

// ModuleThresholds parameterize ERM (error recovery mechanism)
// placement at module granularity, per guideline R2: "the higher the
// error permeability values of a module the lower its ability to
// contain errors ... it may be more cost effective to place ERM's in
// those modules".
type ModuleThresholds struct {
	// PermeabilityMin selects modules whose relative permeability is at
	// least this value.
	PermeabilityMin float64
	// ExposureMin additionally selects modules whose relative exposure
	// is at least this value (R1 applied at module level).
	ExposureMin float64
}

// DefaultModuleThresholds returns the thresholds used by the tools.
func DefaultModuleThresholds() ModuleThresholds {
	return ModuleThresholds{PermeabilityMin: 0.5, ExposureMin: 1.0}
}

// ModuleCandidate is the ERM placement decision for one module.
type ModuleCandidate struct {
	Module model.ModuleID
	// RelativePermeability and RelativeExposure echo the measures.
	RelativePermeability float64
	RelativeExposure     float64
	Selected             bool
	Rules                []Rule
}

// Module-level rules.
const (
	// RuleR2Permeability: low containment — place ERMs here (R2).
	RuleR2Permeability Rule = "R2: high module permeability (low containment)"
	// RuleR1ModuleExposure: module likely to see propagating errors (R1).
	RuleR1ModuleExposure Rule = "R1: high module exposure"
	// RejectContained: the module contains errors adequately.
	RejectContained Rule = "adequate containment and low exposure"
)

// SelectERM ranks modules for error recovery mechanisms using R1/R2 at
// module granularity. Candidates are returned in declaration order.
func SelectERM(p *Permeability, th ModuleThresholds) ([]ModuleCandidate, error) {
	var out []ModuleCandidate
	for _, mod := range p.sys.ModuleIDs() {
		perm, err := p.RelativePermeability(mod)
		if err != nil {
			return nil, err
		}
		exp, err := p.RelativeModuleExposure(mod)
		if err != nil {
			return nil, err
		}
		c := ModuleCandidate{
			Module:               mod,
			RelativePermeability: perm,
			RelativeExposure:     exp,
		}
		if perm >= th.PermeabilityMin {
			c.Selected = true
			c.Rules = append(c.Rules, RuleR2Permeability)
		}
		if exp >= th.ExposureMin {
			c.Selected = true
			c.Rules = append(c.Rules, RuleR1ModuleExposure)
		}
		if !c.Selected {
			c.Rules = append(c.Rules, RejectContained)
		}
		out = append(out, c)
	}
	return out, nil
}
