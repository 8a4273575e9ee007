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

// impactWalk folds Eq. 2 from one source onto every system output in
// one depth-first walk over dense out-edges: the walk BuildImpactTree
// makes, without building the tree. It takes the same child order
// (OutEdges order), cuts cycles at the same signals, spends the same
// node budget and forms the same weight products, and each output's
// factors multiply in the preorder Tree.PathsTo lists its paths, so
// every value is bit-equal to ImpactFromPaths over the tree's paths.
type impactWalk struct {
	sys *model.System
	// The out-edges of dense signal v are outTo[outLo[v]:outLo[v+1]],
	// in OutEdges order, with their permeabilities in outW.
	outLo []int32
	outTo []int32
	outW  []float64
	outs  []int32 // system outputs in declaration order, dense
	ord   []int32 // dense signal -> output ordinal, or -1

	onPath []uint64  // bitset of the signals on the current path
	imps   []float64 // per output: Eq. 2's running product
	budget int       // nodes still allowed beyond the root
}

// newImpactWalk compiles p's system and values into the walk's dense
// tables.
func newImpactWalk(p *Permeability) *impactWalk {
	sys := p.sys
	n := sys.NumSignals()
	edges := sys.Edges()
	w := &impactWalk{
		sys:    sys,
		outLo:  make([]int32, n+1),
		outTo:  make([]int32, 0, len(edges)),
		outW:   make([]float64, 0, len(edges)),
		ord:    make([]int32, n),
		onPath: make([]uint64, (n+63)/64),
	}
	for v := range n {
		for _, e := range sys.OutEdges(sys.SignalAt(v).ID) {
			t, _ := sys.SignalIndex(e.To)
			w.outTo = append(w.outTo, int32(t))
			w.outW = append(w.outW, p.Get(e))
		}
		w.outLo[v+1] = int32(len(w.outTo))
	}
	for i := range w.ord {
		w.ord[i] = -1
	}
	for _, o := range sys.SystemOutputs() {
		oi, _ := sys.SignalIndex(o)
		w.ord[oi] = int32(len(w.outs))
		w.outs = append(w.outs, int32(oi))
	}
	return w
}

// impacts writes I(src → o) for every system output o, in declaration
// order, into imps (one entry per output). It fails with the impact
// tree's error once the walk passes DefaultMaxTreeNodes nodes.
func (w *impactWalk) impacts(src int32, imps []float64) error {
	for i := range imps {
		imps[i] = 1 // Eq. 2's empty product, until a path multiplies in
	}
	if len(w.outs) == 0 || len(w.outs) == 1 && w.outs[0] == src {
		return nil // no output to reach: the tree is never needed
	}
	w.imps, w.budget = imps, DefaultMaxTreeNodes-1
	w.onPath[src>>6] |= 1 << (uint(src) & 63)
	err := w.down(src, 1)
	w.onPath[src>>6] &^= 1 << (uint(src) & 63)
	if err != nil {
		return fmt.Errorf("core: impact tree rooted at %q: %w", w.sys.SignalAt(int(src)).ID, err)
	}
	for i, o := range w.outs {
		if o != src { // a signal's impact on itself stays 1
			imps[i] = min(1, max(0, 1-imps[i]))
		}
	}
	return nil
}

// down visits the children of the node for signal v whose path weight
// is weight, each before its own subtree.
func (w *impactWalk) down(v int32, weight float64) error {
	for a := w.outLo[v]; a < w.outLo[v+1]; a++ {
		to := w.outTo[a]
		bit := uint64(1) << (uint(to) & 63)
		if w.onPath[to>>6]&bit != 0 {
			continue // cycle cut
		}
		if w.budget <= 0 {
			return errNodeCap(DefaultMaxTreeNodes)
		}
		w.budget--
		cw := weight * w.outW[a]
		if o := w.ord[to]; o >= 0 {
			w.imps[o] *= 1 - cw
		}
		w.onPath[to>>6] |= bit
		err := w.down(to, cw)
		w.onPath[to>>6] &^= bit
		if err != nil {
			return err
		}
	}
	return nil
}

// foldCriticality is Eq. 4 folded over the system outputs in
// declaration order, with imps[i] = I(s → o_i) and crits[i] = C_{o_i}.
// An output without a criticality (0) contributes a factor of exactly 1.
func foldCriticality(imps, crits []float64) float64 {
	prod := 1.0
	for i, co := range crits {
		prod *= 1 - co*imps[i]
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
// Impact, it enumerates paths: it is a reference oracle for
// internal/analytic.
func Criticality(p *Permeability, s model.SignalID) (float64, error) {
	return CriticalityWith(p, s, outputCriticalities(p.sys))
}

// CriticalityWith is Criticality with explicit output criticalities —
// "the criticality values may change when project policies change"
// (Section 8), so policy exploration must not require rebuilding the
// system description. Outputs missing from the map default to zero.
// The product runs over the outputs in declaration order, so repeated
// calls return the same bits. Path-enumerating reference (impactWalk):
// with a profile at hand, fold Eq. 4 over SignalProfile.Impacts instead.
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
	crits := make([]float64, len(outs))
	for i, o := range outs {
		crits[i] = outputCrits[o]
	}
	src, _ := p.sys.SignalIndex(s)
	imps := make([]float64, len(outs))
	if err := newImpactWalk(p).impacts(int32(src), imps); err != nil {
		return 0, err
	}
	return foldCriticality(imps, crits), nil
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
