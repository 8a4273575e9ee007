package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/model"
)

// SignalProfile collects every per-signal measure of the framework — the
// material of Table 5 and the graphical profiles of Figures 5 and 6.
type SignalProfile struct {
	Signal model.SignalID
	Kind   model.Kind
	IsBool bool

	// Exposure is the (non-weighted) signal error exposure X^S_s.
	Exposure float64
	// Impacts holds I(s → o) for every system output o, one entry per
	// output in model.System.SystemOutputs order (Profile.ImpactOn looks
	// one up by name). A system output's entry for itself is 1. The
	// slice is read-only: profiles from internal/analytic share it with
	// the solver's row cache.
	Impacts []float64
	// Impact is the largest per-output impact — for single-output
	// systems, exactly the Table 5 column.
	Impact float64
	// Criticality is C_s per Eq. 4 under the system's declared output
	// criticalities.
	Criticality float64
	// MaxInPermeability is the largest permeability among the signal's
	// producing pairs — the "witness" property that brings ms_slot_nbr
	// back into the extended selection (Section 10).
	MaxInPermeability float64
}

// Profile is the full dependability profile of a system under one
// permeability matrix.
type Profile struct {
	perm    *Permeability
	signals []SignalProfile
}

// BuildProfile computes every per-signal measure by path enumeration:
// one depth-first walk per signal over the paths its impact tree would
// hold, folding every output's impact on the way (impactWalk). It is
// the reference oracle, not the production path: profiles come from
// internal/analytic, and BuildProfile is what tests and cmd/inject's
// matrix cross-check compare them against, and the tree unit of the
// place-analytic benchmark. Signals are in dense (declaration) order.
func BuildProfile(p *Permeability) (*Profile, error) {
	sys := p.sys
	n := sys.NumSignals()
	w := newImpactWalk(p)
	k := len(w.outs)
	crits := make([]float64, k)
	for i, o := range w.outs {
		crits[i] = sys.SignalAt(int(o)).Criticality
	}
	signals := make([]SignalProfile, n)
	imps := make([]float64, n*k)
	// Exposure (the sum of the producing pairs' permeabilities) and the
	// witness permeability in one edge pass, in InEdges order per signal.
	for i, e := range sys.Edges() {
		t, _ := sys.SignalIndex(e.To)
		v := p.values[i]
		signals[t].Exposure += v
		if v > signals[t].MaxInPermeability {
			signals[t].MaxInPermeability = v
		}
	}
	for s := range signals {
		sig, sp := sys.SignalAt(s), &signals[s]
		sp.Signal, sp.Kind, sp.IsBool = sig.ID, sig.Kind, sig.IsBool()
		sp.Impacts = imps[s*k : (s+1)*k : (s+1)*k]
		if err := w.impacts(int32(s), sp.Impacts); err != nil {
			return nil, err
		}
		for _, v := range sp.Impacts {
			if v > sp.Impact {
				sp.Impact = v
			}
		}
		sp.Criticality = foldCriticality(sp.Impacts, crits)
	}
	return NewProfile(p, signals), nil
}

// NewProfile assembles a Profile from externally computed signal
// measures — the seam internal/analytic uses to return its solver
// results in the exact shape the placement rules and report tables
// consume. The profile takes ownership of signals and keeps their
// order; Signal finds a name at once when the signals are in dense
// (declaration) order, as both producers give them, and by a scan
// otherwise.
func NewProfile(p *Permeability, signals []SignalProfile) *Profile {
	return &Profile{perm: p, signals: signals}
}

// Permeability returns the matrix the profile was built from.
func (pr *Profile) Permeability() *Permeability { return pr.perm }

// System returns the profiled system.
func (pr *Profile) System() *model.System { return pr.perm.sys }

// Signal returns the profile of one signal.
func (pr *Profile) Signal(s model.SignalID) (SignalProfile, error) {
	if i, ok := pr.perm.sys.SignalIndex(s); ok && i < len(pr.signals) && pr.signals[i].Signal == s {
		return pr.signals[i], nil
	}
	for _, sp := range pr.signals {
		if sp.Signal == s {
			return sp, nil
		}
	}
	return SignalProfile{}, fmt.Errorf("core: unknown signal %q", s)
}

// ImpactOn returns sp's impact on the system output o, I(sp.Signal → o),
// read from sp.Impacts; it is 0 when o is not a system output of the
// profiled system.
func (pr *Profile) ImpactOn(sp SignalProfile, o model.SignalID) float64 {
	for i, out := range pr.perm.sys.SystemOutputs() {
		if out == o && i < len(sp.Impacts) {
			return sp.Impacts[i]
		}
	}
	return 0
}

// Signals returns all signal profiles in declaration order.
func (pr *Profile) Signals() []SignalProfile {
	return append([]SignalProfile(nil), pr.signals...)
}

// Metric selects a ranking dimension.
type Metric int

// Ranking metrics.
const (
	ByExposure Metric = iota + 1
	ByImpact
	ByCriticality
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case ByExposure:
		return "exposure"
	case ByImpact:
		return "impact"
	case ByCriticality:
		return "criticality"
	default:
		return "unknown metric"
	}
}

// key returns the signal's value under the metric (0 for an unknown
// metric).
func (m Metric) key(sp *SignalProfile) float64 {
	switch m {
	case ByExposure:
		return sp.Exposure
	case ByImpact:
		return sp.Impact
	case ByCriticality:
		return sp.Criticality
	default:
		return 0
	}
}

// Ranked returns the signal profiles sorted by the metric, descending,
// with ties broken by signal name for determinism.
func (pr *Profile) Ranked(m Metric) []SignalProfile {
	// Sort positions by their extracted keys, then copy each profile
	// once: cheaper than swapping whole profiles, and the name tiebreak
	// makes the order total, so any sort gives the same result.
	type ranked struct {
		key float64
		at  int
	}
	order := make([]ranked, len(pr.signals))
	for i := range pr.signals {
		order[i] = ranked{m.key(&pr.signals[i]), i}
	}
	slices.SortFunc(order, func(a, b ranked) int {
		if c := cmp.Compare(b.key, a.key); c != 0 {
			return c
		}
		return cmp.Compare(pr.signals[a.at].Signal, pr.signals[b.at].Signal)
	})
	out := make([]SignalProfile, len(order))
	for i, r := range order {
		out[i] = pr.signals[r.at]
	}
	return out
}
