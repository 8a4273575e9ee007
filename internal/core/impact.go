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

// outputImpacts returns I(s → o) for every system output o of outs
// (the system's, in declaration order). It builds s's impact tree once,
// only if some output is not s itself, and folds Eq. 2 for every
// output in one preorder walk: each output meets its paths in the
// order Tree.PathsTo lists them, so every value is bit-equal to
// Impact's.
func outputImpacts(p *Permeability, s model.SignalID, outs []model.SignalID) ([]float64, error) {
	imps := make([]float64, len(outs))
	ord := make(map[model.SignalID]int, len(outs))
	for i, o := range outs {
		imps[i] = 1 // Eq. 2's empty product, until a path multiplies in
		if o != s {
			ord[o] = i
		}
	}
	if len(ord) > 0 {
		tree, err := BuildImpactTree(p, s)
		if err != nil {
			return nil, err
		}
		var walk func(n *Node)
		walk = func(n *Node) {
			for _, c := range n.Children {
				if i, ok := ord[c.Signal]; ok {
					imps[i] *= 1 - c.Weight
				}
				walk(c)
			}
		}
		walk(tree.Root)
	}
	for _, i := range ord {
		imps[i] = min(1, max(0, 1-imps[i]))
	}
	return imps, nil
}

// outputCriticalities maps each system output to its declared C_o.
func outputCriticalities(sys *model.System) map[model.SignalID]float64 {
	crits := make(map[model.SignalID]float64)
	for _, o := range sys.SystemOutputs() {
		sig, _ := sys.Signal(o)
		crits[o] = sig.Criticality
	}
	return crits
}

// foldCriticality is Eq. 4 folded over the system outputs outs in
// declaration order, with imps[i] = I(s → outs[i]). An output missing
// from crits contributes a factor of exactly 1.
func foldCriticality(outs []model.SignalID, imps []float64, crits map[model.SignalID]float64) float64 {
	prod := 1.0
	for i, o := range outs {
		if co, ok := crits[o]; ok {
			prod *= 1 - co*imps[i]
		}
	}
	return min(1, max(0, 1-prod))
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
	return CriticalityWith(p, s, outputCriticalities(p.sys))
}

// CriticalityWith is Criticality with explicit output criticalities —
// "the criticality values may change when project policies change"
// (Section 8), so policy exploration must not require rebuilding the
// system description. Outputs missing from the map default to zero.
// The product runs over the outputs in declaration order, so repeated
// calls return the same bits. Tree-based reference: with a profile at
// hand, fold Eq. 4 over SignalProfile.ImpactOn instead.
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
	if len(outputCrits) == 0 {
		return 0, nil // every factor is 1
	}
	outs := p.sys.SystemOutputs()
	imps, err := outputImpacts(p, s, outs)
	if err != nil {
		return 0, err
	}
	return foldCriticality(outs, imps, outputCrits), nil
}
