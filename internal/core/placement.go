package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/model"
)

// Thresholds parameterize the placement rule engines. The defaults
// reproduce the paper's selections on its own permeability matrix.
type Thresholds struct {
	// ExposureMin is the signal-error-exposure level above which a
	// signal is worth guarding (guideline R1).
	ExposureMin float64
	// ImpactMin is the impact level above which the extended framework
	// guards a signal even when its exposure is low (guideline R3:
	// "errors in this signal are relatively rare but costly").
	ImpactMin float64
	// WitnessPermeability marks signals fed through a near-certain
	// permeability: under error models that corrupt internal state, such
	// a signal witnesses corruption of its source (the paper's
	// ms_slot_nbr argument in Section 10).
	WitnessPermeability float64
}

// DefaultThresholds returns the thresholds used throughout the
// reproduction.
func DefaultThresholds() Thresholds {
	return Thresholds{
		ExposureMin:         0.9,
		ImpactMin:           0.25,
		WitnessPermeability: 0.999,
	}
}

// Rule identifies why a signal was selected or rejected.
type Rule string

// Selection and rejection rules. R1–R3 name the paper's guidelines.
const (
	// RuleR1Exposure: high signal error exposure (Section 5.2, R1).
	RuleR1Exposure Rule = "R1: high error exposure"
	// RuleR3Impact: high impact/criticality despite low exposure
	// (Section 9, R3).
	RuleR3Impact Rule = "R3: high impact on system output"
	// RuleWitness: permeability-1 witness of internal-state corruption
	// (Section 10).
	RuleWitness Rule = "witness: fed through permeability ~1 under internal error model"
	// RuleEHInternalSignal: the codified experience/heuristic rule —
	// guard every internally generated non-boolean signal (Section 5.1).
	RuleEHInternalSignal Rule = "EH: internally generated signal with direct influence"

	// Rejection rules, phrased like the motivations of Table 2.
	RejectLowExposure  Rule = "low error exposure"
	RejectZeroImpact   Rule = "no propagation path to a system output"
	RejectBoolean      Rule = "selected EA's not geared at boolean values"
	RejectSystemOutput Rule = "errors here most likely come from the guarded predecessor"
	RejectSystemInput  Rule = "hardware register, refreshed by the sensor"
)

// Candidate is the placement decision for one signal.
type Candidate struct {
	Signal   model.SignalID
	Selected bool
	// Rules lists the matched selection (or rejection) rules.
	Rules []Rule
	// Exposure, Impact and Criticality echo the profile for reporting.
	Exposure    float64
	Impact      float64
	Criticality float64
}

// Selection is the outcome of a placement pass.
type Selection struct {
	// Candidates holds one entry per signal, in declaration order.
	Candidates []Candidate
}

// Selected returns the chosen signals, sorted by descending exposure
// then name.
func (s Selection) Selected() []model.SignalID {
	picked := make([]*Candidate, 0, len(s.Candidates))
	for i := range s.Candidates {
		if c := &s.Candidates[i]; c.Selected {
			picked = append(picked, c)
		}
	}
	slices.SortFunc(picked, func(a, b *Candidate) int {
		if c := cmp.Compare(b.Exposure, a.Exposure); c != 0 {
			return c
		}
		return cmp.Compare(a.Signal, b.Signal)
	})
	out := make([]model.SignalID, len(picked))
	for i, c := range picked {
		out[i] = c.Signal
	}
	return out
}

// Candidate returns the decision for one signal.
func (s Selection) Candidate(id model.SignalID) (Candidate, error) {
	for _, c := range s.Candidates {
		if c.Signal == id {
			return c, nil
		}
	}
	return Candidate{}, fmt.Errorf("core: no candidate for signal %q", id)
}

// SelectPA is the propagation-analysis placement of Section 5.3: guard
// signals whose error exposure is high, skipping booleans (the EA
// limitation of Table 2), signals with no onward propagation (errors
// there cannot affect the system output — the ms_slot_nbr rejection) and
// system outputs (guarded via their immediate predecessor — the TOC2
// rejection). On the paper's matrix this yields exactly
// {OutValue, i, SetValue, pulscnt}.
func SelectPA(pr *Profile, th Thresholds) Selection {
	return selectBy(pr, th, false)
}

// SelectExtended is the extended placement of Sections 9–10: the PA rule
// extended with the effect rule R3 (guard high-impact low-exposure
// signals such as IsValue and mscnt) and, because the severe error model
// corrupts internal state everywhere, the witness rule (re-admitting
// ms_slot_nbr). On the paper's matrix this re-derives the EH set. Per
// R3's own wording — "the higher the criticality (or impact if the
// system only has one output signal)" — the effect measure is the
// criticality on multi-output systems and the impact otherwise.
func SelectExtended(pr *Profile, th Thresholds) Selection {
	return selectBy(pr, th, true)
}

// selectBy decides every signal of the profile in place. The
// candidates' rule lists share one backing array, each capped at its
// own length, so appending to one never writes into another's.
func selectBy(pr *Profile, th Thresholds, extended bool) Selection {
	multi := len(pr.System().SystemOutputs()) > 1
	cands := make([]Candidate, len(pr.signals))
	rules := make([]Rule, 0, 2*len(pr.signals)) // decide matches at most two rules
	for i := range pr.signals {
		lo := len(rules)
		cands[i], rules = decide(&pr.signals[i], th, extended, multi, rules)
		cands[i].Rules = rules[lo:len(rules):len(rules)]
	}
	return Selection{Candidates: cands}
}

// effectOf returns R3's effect measure for the signal.
func effectOf(sp *SignalProfile, multiOutput bool) float64 {
	if multiOutput {
		return sp.Criticality
	}
	return sp.Impact
}

// decide is one signal's placement decision; it appends the rules it
// matches to rules and returns the candidate without them.
func decide(sp *SignalProfile, th Thresholds, extended, multiOutput bool, rules []Rule) (Candidate, []Rule) {
	c := Candidate{
		Signal:      sp.Signal,
		Exposure:    sp.Exposure,
		Impact:      sp.Impact,
		Criticality: sp.Criticality,
	}
	// Structural exclusions first.
	switch {
	case sp.Kind == model.KindSystemInput:
		rules = append(rules, RejectSystemInput)
		return c, rules
	case sp.IsBool:
		rules = append(rules, RejectBoolean)
		return c, rules
	case sp.Kind == model.KindSystemOutput:
		rules = append(rules, RejectSystemOutput)
		return c, rules
	}

	effect := effectOf(sp, multiOutput)
	if sp.Exposure >= th.ExposureMin {
		switch {
		case sp.Impact > 0:
			c.Selected = true
			rules = append(rules, RuleR1Exposure)
		case extended && sp.MaxInPermeability >= th.WitnessPermeability:
			c.Selected = true
			rules = append(rules, RuleWitness)
		default:
			rules = append(rules, RejectZeroImpact)
		}
		if c.Selected && extended && effect >= th.ImpactMin {
			rules = append(rules, RuleR3Impact)
		}
		return c, rules
	}

	if extended && effect >= th.ImpactMin {
		c.Selected = true
		rules = append(rules, RuleR3Impact)
		return c, rules
	}
	rules = append(rules, RejectLowExposure)
	return c, rules
}

// SelectEH codifies the experience/heuristic process of Section 5.1
// (identify signal paths, identify internally generated signals with
// direct influence, rank by criticality, decide): guard every internally
// generated non-boolean signal. On the target this yields the paper's
// EH set of seven signals.
func SelectEH(sys *model.System) Selection {
	var sel Selection
	for _, sig := range sys.Signals() {
		c := Candidate{Signal: sig.ID}
		switch {
		case sig.Kind == model.KindSystemInput:
			c.Rules = append(c.Rules, RejectSystemInput)
		case sig.Kind == model.KindSystemOutput:
			c.Rules = append(c.Rules, RejectSystemOutput)
		case sig.IsBool():
			c.Rules = append(c.Rules, RejectBoolean)
		default:
			c.Selected = true
			c.Rules = append(c.Rules, RuleEHInternalSignal)
		}
		sel.Candidates = append(sel.Candidates, c)
	}
	return sel
}
