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
	// ImpactOn maps each system output o to I(s → o). A system output's
	// entry for itself is 1. The map is read-only: profiles from
	// internal/analytic share it with the solver's row cache.
	ImpactOn map[model.SignalID]float64
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
	byID    map[model.SignalID]int
}

// BuildProfile computes every per-signal measure by tree-based path
// enumeration, building one impact tree per signal and folding every
// output's impact from it. It is the reference oracle, not the
// production path: profiles come from internal/analytic, and
// BuildProfile is what tests and cmd/inject's matrix cross-check
// compare them against, and the tree unit of the place-analytic
// benchmark.
func BuildProfile(p *Permeability) (*Profile, error) {
	sys := p.sys
	outs := sys.SystemOutputs()
	crits := outputCriticalities(sys)
	pr := &Profile{
		perm: p,
		byID: make(map[model.SignalID]int, len(sys.SignalIDs())),
	}
	for _, sig := range sys.Signals() {
		sp := SignalProfile{
			Signal:   sig.ID,
			Kind:     sig.Kind,
			IsBool:   sig.IsBool(),
			ImpactOn: make(map[model.SignalID]float64, len(outs)),
		}
		x, err := p.SignalExposure(sig.ID)
		if err != nil {
			return nil, err
		}
		sp.Exposure = x
		imps, err := outputImpacts(p, sig.ID, outs)
		if err != nil {
			return nil, err
		}
		for i, o := range outs {
			sp.ImpactOn[o] = imps[i]
			if imps[i] > sp.Impact {
				sp.Impact = imps[i]
			}
		}
		sp.Criticality = foldCriticality(outs, imps, crits)
		for _, e := range sys.InEdges(sig.ID) {
			if v := p.Get(e); v > sp.MaxInPermeability {
				sp.MaxInPermeability = v
			}
		}
		pr.byID[sig.ID] = len(pr.signals)
		pr.signals = append(pr.signals, sp)
	}
	return pr, nil
}

// NewProfile assembles a Profile from externally computed signal
// measures — the seam internal/analytic uses to return its solver
// results in the exact shape the placement rules and report tables
// consume. Signals keep the given order; BuildProfile remains the
// tree-based reference constructor.
func NewProfile(p *Permeability, signals []SignalProfile) *Profile {
	pr := &Profile{
		perm:    p,
		signals: append([]SignalProfile(nil), signals...),
		byID:    make(map[model.SignalID]int, len(signals)),
	}
	for i, sp := range pr.signals {
		pr.byID[sp.Signal] = i
	}
	return pr
}

// Permeability returns the matrix the profile was built from.
func (pr *Profile) Permeability() *Permeability { return pr.perm }

// System returns the profiled system.
func (pr *Profile) System() *model.System { return pr.perm.sys }

// Signal returns the profile of one signal.
func (pr *Profile) Signal(s model.SignalID) (SignalProfile, error) {
	i, ok := pr.byID[s]
	if !ok {
		return SignalProfile{}, fmt.Errorf("core: unknown signal %q", s)
	}
	return pr.signals[i], nil
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
