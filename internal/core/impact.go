package core

import (
	"fmt"

	"repro/internal/model"
)

// Impact computes the impact of errors in signal from on signal to
// (Eq. 2): 1 − Π_i (1 − w_i) over every acyclic propagation path i from
// from to to, where w_i is the product of the permeabilities along the
// path. A signal's impact on itself is 1 (the paper: for the output
// signal "one could say that the impact is 1.0"). The result is in
// [0, 1]; a signal with no path to the destination has impact 0.
//
// Impact enumerates paths on an impact tree: it is the reference oracle
// for internal/analytic, which produces the impacts every profile uses.
func Impact(p *Permeability, from, to model.SignalID) (float64, error) {
	if _, ok := p.sys.Signal(to); !ok {
		return 0, fmt.Errorf("core: unknown signal %q", to)
	}
	if from == to {
		return 1, nil
	}
	tree, err := BuildImpactTree(p, from)
	if err != nil {
		return 0, err
	}
	return ImpactFromPaths(tree.PathsTo(to)), nil
}

// ImpactFromPaths folds path weights with Eq. 2. Exposed so callers that
// already built an impact tree (e.g. reports rendering Fig. 4) can reuse
// its paths.
func ImpactFromPaths(paths []Path) float64 {
	prod := 1.0
	for _, path := range paths {
		prod *= 1 - path.Weight
	}
	impact := 1 - prod
	if impact < 0 {
		impact = 0
	}
	if impact > 1 {
		impact = 1
	}
	return impact
}

// Criticality computes C_s (Eq. 4): the criticality of a signal given
// the designer-assigned criticalities C_o of the system outputs:
//
//	C_s = 1 − Π_i (1 − C_{o,i} · I(s → o_i))
//
// Output criticalities are taken from the system description
// (model.Signal.Criticality). For a signal that is itself a system
// output, its own term uses I = 1, so C_s ≥ C_o as expected. Like
// Impact, it is the tree-based reference oracle for internal/analytic.
func Criticality(p *Permeability, s model.SignalID) (float64, error) {
	crits := make(map[model.SignalID]float64)
	for _, o := range p.sys.SystemOutputs() {
		sig, _ := p.sys.Signal(o)
		crits[o] = sig.Criticality
	}
	return CriticalityWith(p, s, crits)
}

// CriticalityWith is Criticality with explicit output criticalities —
// "the criticality values may change when project policies change"
// (Section 8), so policy exploration must not require rebuilding the
// system description. Outputs missing from the map default to zero.
// Tree-based reference: with a profile at hand, fold Eq. 4 over
// SignalProfile.ImpactOn instead.
func CriticalityWith(p *Permeability, s model.SignalID, outputCrits map[model.SignalID]float64) (float64, error) {
	if _, ok := p.sys.Signal(s); !ok {
		return 0, fmt.Errorf("core: unknown signal %q", s)
	}
	for o, c := range outputCrits {
		if c < 0 || c > 1 {
			return 0, fmt.Errorf("core: criticality %v of output %q outside [0,1]", c, o)
		}
		sig, ok := p.sys.Signal(o)
		if !ok {
			return 0, fmt.Errorf("core: unknown output %q", o)
		}
		if sig.Kind != model.KindSystemOutput {
			return 0, fmt.Errorf("core: %q is not a system output", o)
		}
	}
	prod := 1.0
	for o, co := range outputCrits {
		imp, err := Impact(p, s, o)
		if err != nil {
			return 0, err
		}
		prod *= 1 - co*imp
	}
	c := 1 - prod
	if c < 0 {
		c = 0
	}
	if c > 1 {
		c = 1
	}
	return c, nil
}
