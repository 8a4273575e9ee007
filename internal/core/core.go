// Package core implements the paper's contribution: the error
// propagation and effect analysis framework for placing error detection
// and recovery mechanisms (EDMs/ERMs) in black-box modular software.
//
// The framework takes only a static system description (internal/model)
// and a matrix of error permeabilities — the conditional probabilities
// P^M_{i,k} = Pr{error on output k | error on input i} of every module
// input/output pair (Eq. 1) — and derives:
//
//   - Propagation measures (Section 5.2): relative and non-weighted
//     module permeability, module error exposure, and signal error
//     exposure, used for ranking modules and signals by how likely they
//     are to see propagating errors (guidelines R1/R2).
//   - Propagation structure (Section 5.2): backtrack trees (paths errors
//     can take to reach an output) and trace trees (paths errors can take
//     from a signal), both acyclic by construction.
//   - Effect measures (Section 8): impact — the aggregated weight of all
//     propagation paths from a signal to a system output (Eq. 2, computed
//     on an impact tree) — and criticality, which scales impact by
//     designer-assigned output criticalities (Eqs. 3–4, guideline R3).
//   - Placement (Sections 5.3, 9, 10): rule engines reproducing the
//     paper's PA selection, the codified experience/heuristic selection,
//     and the extended (propagation + effect) selection.
//
// The measures "do not necessarily reflect probabilities. Rather, they
// are abstract measures that can be used to obtain a relative ordering
// across modules and signals" (Section 5.2) — the package therefore never
// interprets them as probabilities beyond clamping to [0, 1].
//
// Every profile outside tests comes from internal/analytic, which solves
// Eqs. 2–4 without enumerating paths. The path-enumerating code here —
// BuildProfile, Impact, Criticality, CriticalityWith and the trees of
// trees.go — is the reference oracle the solver is tested against, the
// Figure 4 / propan -tree|-backtrack|-impact artifact, and the tree unit
// of the place-analytic benchmark. Impact folds Eq. 2 over a built
// impact tree; BuildProfile and CriticalityWith fold it during a walk
// over the same paths that builds no tree, and the trees are that
// walk's oracle.
package core

import (
	"fmt"

	"repro/internal/model"
)

// Permeability holds the estimated error permeability of every module
// input/output pair of a system (Eq. 1). Unset pairs default to zero.
type Permeability struct {
	sys *model.System
	// values is dense in system edge order (model.System.Edges), so a
	// module's pairs are one contiguous range (model.System.ModuleEdges).
	values []float64
}

// NewPermeability creates an empty matrix for the system.
func NewPermeability(sys *model.System) *Permeability {
	return &Permeability{sys: sys, values: make([]float64, len(sys.Edges()))}
}

// System returns the system the matrix describes.
func (p *Permeability) System() *model.System { return p.sys }

// edge resolves a module input/output pair to its Edge.
func (p *Permeability) edge(mod model.ModuleID, in, out int) (model.Edge, error) {
	m, ok := p.sys.Module(mod)
	if !ok {
		return model.Edge{}, fmt.Errorf("core: unknown module %q", mod)
	}
	from, ok := m.InputSignal(in)
	if !ok {
		return model.Edge{}, fmt.Errorf("core: module %s has no input %d", mod, in)
	}
	to, ok := m.OutputSignal(out)
	if !ok {
		return model.Edge{}, fmt.Errorf("core: module %s has no output %d", mod, out)
	}
	return model.Edge{Module: mod, In: in, Out: out, From: from, To: to}, nil
}

// Set stores P^mod_{in,out} = v. v must lie in [0, 1].
func (p *Permeability) Set(mod model.ModuleID, in, out int, v float64) error {
	e, err := p.edge(mod, in, out)
	if err != nil {
		return err
	}
	return p.SetEdge(e, v)
}

// SetEdge stores the permeability of an edge. The edge must be one of
// the system's (model.System.EdgeIndex), signals included.
func (p *Permeability) SetEdge(e model.Edge, v float64) error {
	i, ok := p.sys.EdgeIndex(e)
	if !ok {
		return fmt.Errorf("core: %s.in%d(%s)->out%d(%s) is not an edge of system %q", e.Module, e.In, e.From, e.Out, e.To, p.sys.Name())
	}
	if v < 0 || v > 1 {
		return fmt.Errorf("core: permeability %v of %s.in%d->out%d outside [0,1]", v, e.Module, e.In, e.Out)
	}
	p.values[i] = v
	return nil
}

// MustSet is Set that panics on error, for statically-known fixtures.
func (p *Permeability) MustSet(mod model.ModuleID, in, out int, v float64) {
	if err := p.Set(mod, in, out, v); err != nil {
		panic(err)
	}
}

// Get returns the permeability of an edge (zero if unset or not an edge
// of the system).
func (p *Permeability) Get(e model.Edge) float64 {
	if i, ok := p.sys.EdgeIndex(e); ok {
		return p.values[i]
	}
	return 0
}

// Values returns a copy of every permeability in system edge order
// (model.System.Edges).
func (p *Permeability) Values() []float64 { return append([]float64(nil), p.values...) }

// RelativePermeability returns P^M for a module: the sum of its pair
// permeabilities normalized by the number of input/output pairs — the
// paper's measure of a module's "ability to let propagating errors pass
// through it", in [0, 1].
func (p *Permeability) RelativePermeability(mod model.ModuleID) (float64, error) {
	sum, n, err := p.moduleSum(mod)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	return sum / float64(n), nil
}

// NonWeightedPermeability returns P̂^M: the same sum without
// normalization.
func (p *Permeability) NonWeightedPermeability(mod model.ModuleID) (float64, error) {
	sum, _, err := p.moduleSum(mod)
	return sum, err
}

func (p *Permeability) moduleSum(mod model.ModuleID) (float64, int, error) {
	lo, hi, ok := p.sys.ModuleEdges(mod)
	if !ok {
		return 0, 0, fmt.Errorf("core: unknown module %q", mod)
	}
	var sum float64
	for _, v := range p.values[lo:hi] {
		sum += v
	}
	return sum, hi - lo, nil
}

// SignalExposure returns X^S_s, the signal error exposure: the sum of
// the permeabilities of all input/output pairs that produce the signal.
// This is the non-weighted form, which is what Table 2 of the paper
// tabulates (e.g. OutValue: 0.885 + 0.896 = 1.781). System inputs have
// no producing pairs and expose as zero.
func (p *Permeability) SignalExposure(s model.SignalID) (float64, error) {
	if _, ok := p.sys.Signal(s); !ok {
		return 0, fmt.Errorf("core: unknown signal %q", s)
	}
	var sum float64
	for _, e := range p.sys.InEdges(s) {
		sum += p.Get(e)
	}
	return sum, nil
}

// ModuleExposure returns X^M: the summed exposure of the module's input
// signals — how likely the module is to be subjected to propagating
// errors (guideline R1). The normalized companion divides by the number
// of inputs.
func (p *Permeability) ModuleExposure(mod model.ModuleID) (float64, error) {
	m, ok := p.sys.Module(mod)
	if !ok {
		return 0, fmt.Errorf("core: unknown module %q", mod)
	}
	var sum float64
	for _, in := range m.Inputs {
		x, err := p.SignalExposure(in.Signal)
		if err != nil {
			return 0, err
		}
		sum += x
	}
	return sum, nil
}

// RelativeModuleExposure returns the module exposure normalized by the
// number of inputs.
func (p *Permeability) RelativeModuleExposure(mod model.ModuleID) (float64, error) {
	m, ok := p.sys.Module(mod)
	if !ok {
		return 0, fmt.Errorf("core: unknown module %q", mod)
	}
	if len(m.Inputs) == 0 {
		return 0, nil
	}
	sum, err := p.ModuleExposure(mod)
	if err != nil {
		return 0, err
	}
	return sum / float64(len(m.Inputs)), nil
}
