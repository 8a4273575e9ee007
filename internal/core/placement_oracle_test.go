package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/model"
)

// rankedOracle is Ranked as it stood before it sorted positions: it
// sorts a copy of the signal profiles themselves.
func rankedOracle(pr *Profile, m Metric) []SignalProfile {
	out := pr.Signals()
	key := func(sp SignalProfile) float64 {
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
	slices.SortFunc(out, func(a, b SignalProfile) int {
		if c := cmp.Compare(key(b), key(a)); c != 0 {
			return c
		}
		return cmp.Compare(a.Signal, b.Signal)
	})
	return out
}

// selectOracle is SelectPA (extended false) and SelectExtended as they
// stood before selection read the profile in place: one copied profile
// and one rule list of its own per candidate.
func selectOracle(pr *Profile, th Thresholds, extended bool) Selection {
	multi := len(pr.System().SystemOutputs()) > 1
	var sel Selection
	for _, sp := range pr.Signals() {
		sel.Candidates = append(sel.Candidates, decideOracle(sp, th, extended, multi))
	}
	return sel
}

func decideOracle(sp SignalProfile, th Thresholds, extended, multiOutput bool) Candidate {
	c := Candidate{
		Signal:      sp.Signal,
		Exposure:    sp.Exposure,
		Impact:      sp.Impact,
		Criticality: sp.Criticality,
	}
	switch {
	case sp.Kind == model.KindSystemInput:
		c.Rules = append(c.Rules, RejectSystemInput)
		return c
	case sp.IsBool:
		c.Rules = append(c.Rules, RejectBoolean)
		return c
	case sp.Kind == model.KindSystemOutput:
		c.Rules = append(c.Rules, RejectSystemOutput)
		return c
	}
	effect := sp.Impact
	if multiOutput {
		effect = sp.Criticality
	}
	if sp.Exposure >= th.ExposureMin {
		switch {
		case sp.Impact > 0:
			c.Selected = true
			c.Rules = append(c.Rules, RuleR1Exposure)
		case extended && sp.MaxInPermeability >= th.WitnessPermeability:
			c.Selected = true
			c.Rules = append(c.Rules, RuleWitness)
		default:
			c.Rules = append(c.Rules, RejectZeroImpact)
		}
		if c.Selected && extended && effect >= th.ImpactMin {
			c.Rules = append(c.Rules, RuleR3Impact)
		}
		return c
	}
	if extended && effect >= th.ImpactMin {
		c.Selected = true
		c.Rules = append(c.Rules, RuleR3Impact)
		return c
	}
	c.Rules = append(c.Rules, RejectLowExposure)
	return c
}

// selectedOracle is Selection.Selected as it stood before it used
// slices.SortFunc.
func selectedOracle(s Selection) []model.SignalID {
	var picked []Candidate
	for _, c := range s.Candidates {
		if c.Selected {
			picked = append(picked, c)
		}
	}
	sort.Slice(picked, func(i, j int) bool {
		if picked[i].Exposure != picked[j].Exposure {
			return picked[i].Exposure > picked[j].Exposure
		}
		return picked[i].Signal < picked[j].Signal
	})
	out := make([]model.SignalID, len(picked))
	for i, c := range picked {
		out[i] = c.Signal
	}
	return out
}

// tiedProfile builds a profile of n signals whose measures are drawn
// from a few values, the rule thresholds among them, so exact-key ties
// are common under every metric and every rule branch is taken. Names
// are drawn in shuffled order, so the name tiebreak decides against
// declaration order.
func tiedProfile(rng *rand.Rand, p *Permeability, n int) *Profile {
	th := DefaultThresholds()
	vals := []float64{0, 0.1, th.ImpactMin, 0.5, th.ExposureMin, 1, 1.5}
	kinds := []model.Kind{model.KindSystemInput, model.KindIntermediate, model.KindIntermediate, model.KindIntermediate, model.KindSystemOutput}
	signals := make([]SignalProfile, n)
	for i, j := range rng.Perm(n) {
		signals[i] = SignalProfile{
			Signal:            model.SignalID(fmt.Sprintf("s%03d", j)),
			Kind:              kinds[rng.Intn(len(kinds))],
			IsBool:            rng.Intn(6) == 0,
			Exposure:          vals[rng.Intn(len(vals))],
			Impact:            vals[rng.Intn(len(vals)-1)],
			Criticality:       vals[rng.Intn(len(vals)-1)],
			MaxInPermeability: []float64{0.5, th.WitnessPermeability, 1}[rng.Intn(3)],
		}
	}
	return NewProfile(p, signals)
}

// oracleProfiles are the profiles the placement oracles run on: the
// placement fixture's, and tied profiles over a one-output and a
// two-output system, which select with impact and with criticality.
func oracleProfiles(t *testing.T) []*Profile {
	t.Helper()
	fixture, _ := placementSystem(t)
	out := []*Profile{fixture}
	multi, err := model.NewBuilder("two-outputs").
		AddSignal("in", model.Uint(16), model.AsSystemInput()).
		AddSignal("o1", model.Uint(16), model.AsSystemOutput(0.5)).
		AddSignal("o2", model.Uint(16), model.AsSystemOutput(1)).
		AddModule("M", model.In("in"), model.Out("o1", "o2")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []*model.System{fixture.System(), multi} {
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			out = append(out, tiedProfile(rng, NewPermeability(sys), 1+rng.Intn(120)))
		}
	}
	return out
}

// TestRankedMatchesOracle: sorting positions gives the order sorting
// the profiles gave, ties included, under every metric and an unknown
// one (name order alone).
func TestRankedMatchesOracle(t *testing.T) {
	for i, pr := range oracleProfiles(t) {
		for _, m := range []Metric{ByExposure, ByImpact, ByCriticality, Metric(0)} {
			if got, want := pr.Ranked(m), rankedOracle(pr, m); !reflect.DeepEqual(got, want) {
				t.Errorf("profile %d, %s: Ranked differs from the oracle", i, m)
			}
		}
	}
}

// TestSelectionsMatchOracle: in-place selection decides every
// candidate, rules included, as the oracle does, and Selected lists
// the same signals in the same order.
func TestSelectionsMatchOracle(t *testing.T) {
	th := DefaultThresholds()
	for i, pr := range oracleProfiles(t) {
		for _, extended := range []bool{false, true} {
			got := SelectPA(pr, th)
			if extended {
				got = SelectExtended(pr, th)
			}
			want := selectOracle(pr, th, extended)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("profile %d extended=%v: candidates differ from the oracle", i, extended)
			}
			if g, w := got.Selected(), selectedOracle(want); !reflect.DeepEqual(g, w) {
				t.Errorf("profile %d extended=%v: Selected %v, oracle %v", i, extended, g, w)
			}
		}
	}
}

// TestCandidateRulesAreSeparate: the candidates' rule lists share one
// backing array, so appending to one must not write into the next.
func TestCandidateRulesAreSeparate(t *testing.T) {
	pr, _ := placementSystem(t)
	for _, sel := range []Selection{SelectPA(pr, DefaultThresholds()), SelectExtended(pr, DefaultThresholds())} {
		before := make([][]Rule, len(sel.Candidates))
		for i, c := range sel.Candidates {
			before[i] = slices.Clone(c.Rules)
		}
		for i := range sel.Candidates {
			sel.Candidates[i].Rules = append(sel.Candidates[i].Rules, "appended")
			for j, c := range sel.Candidates {
				want := before[j]
				if j <= i {
					want = append(slices.Clone(want), "appended")
				}
				if !slices.Equal(c.Rules, want) {
					t.Fatalf("after appending to candidate %d, candidate %d rules %v, want %v", i, j, c.Rules, want)
				}
			}
		}
	}
}
