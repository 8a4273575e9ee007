package core

import (
	"slices"
	"testing"

	"repro/internal/model"
)

// placementSystem models the shapes the paper's rules must discriminate:
//
//	in -> [SRC] -> hot (high exposure, reaches out)
//	            -> dead (high exposure, no onward path)
//	            -> rare (low exposure, high impact)
//	            -> flag (boolean, high exposure and impact)
//	[SINK]: hot, rare, flag -> out
func placementSystem(t *testing.T) (*Profile, *model.System) {
	t.Helper()
	sys, err := model.NewBuilder("placement").
		AddSignal("in", model.Uint(16), model.AsSystemInput()).
		AddSignal("hot", model.Uint(16)).
		AddSignal("dead", model.Uint(16)).
		AddSignal("rare", model.Uint(16)).
		AddSignal("flag", model.Bool()).
		AddSignal("out", model.Uint(16), model.AsSystemOutput(1)).
		AddModule("SRC", model.In("in"), model.Out("hot", "dead", "rare", "flag")).
		AddModule("SINK", model.In("hot", "rare", "flag"), model.Out("out")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	p := NewPermeability(sys)
	p.MustSet("SRC", 1, 1, 0.95) // in -> hot: high exposure
	p.MustSet("SRC", 1, 2, 1.0)  // in -> dead: permeability-1 witness
	p.MustSet("SRC", 1, 3, 0.05) // in -> rare: low exposure
	p.MustSet("SRC", 1, 4, 0.95) // in -> flag
	p.MustSet("SINK", 1, 1, 0.9) // hot -> out
	p.MustSet("SINK", 2, 1, 0.9) // rare -> out: high impact
	p.MustSet("SINK", 3, 1, 0.9) // flag -> out
	pr, err := BuildProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	return pr, sys
}

func selectedSet(sel Selection) map[model.SignalID]bool {
	out := map[model.SignalID]bool{}
	for _, s := range sel.Selected() {
		out[s] = true
	}
	return out
}

func TestSelectPARules(t *testing.T) {
	pr, _ := placementSystem(t)
	sel := SelectPA(pr, DefaultThresholds())
	got := selectedSet(sel)

	if !got["hot"] {
		t.Error("hot (high exposure, reaches output) not selected")
	}
	if got["dead"] {
		t.Error("dead (zero impact) selected by PA")
	}
	if got["rare"] {
		t.Error("rare (low exposure) selected by PA")
	}
	if got["flag"] {
		t.Error("boolean selected")
	}
	if got["in"] || got["out"] {
		t.Error("system boundary signal selected")
	}

	// Rule reporting.
	c, err := sel.Candidate("dead")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Rules) == 0 || c.Rules[0] != RejectZeroImpact {
		t.Errorf("dead rules = %v, want zero-impact rejection", c.Rules)
	}
	c, _ = sel.Candidate("flag")
	if len(c.Rules) == 0 || c.Rules[0] != RejectBoolean {
		t.Errorf("flag rules = %v, want boolean rejection", c.Rules)
	}
}

func TestSelectExtendedAddsImpactAndWitness(t *testing.T) {
	pr, _ := placementSystem(t)
	sel := SelectExtended(pr, DefaultThresholds())
	got := selectedSet(sel)

	if !got["hot"] {
		t.Error("hot lost by extended selection")
	}
	if !got["rare"] {
		t.Error("rare (low exposure, high impact) not re-admitted by R3")
	}
	if !got["dead"] {
		t.Error("dead (permeability-1 witness) not re-admitted")
	}
	if got["flag"] {
		t.Error("boolean re-admitted despite EA limitation")
	}

	c, err := sel.Candidate("rare")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range c.Rules {
		if r == RuleR3Impact {
			found = true
		}
	}
	if !found {
		t.Errorf("rare rules = %v, want R3", c.Rules)
	}

	c, _ = sel.Candidate("dead")
	found = false
	for _, r := range c.Rules {
		if r == RuleWitness {
			found = true
		}
	}
	if !found {
		t.Errorf("dead rules = %v, want witness", c.Rules)
	}
}

func TestSelectEHGuardsInternalNonBooleans(t *testing.T) {
	_, sys := placementSystem(t)
	sel := SelectEH(sys)
	got := selectedSet(sel)
	for _, want := range []model.SignalID{"hot", "dead", "rare"} {
		if !got[want] {
			t.Errorf("EH did not select %s", want)
		}
	}
	for _, reject := range []model.SignalID{"in", "out", "flag"} {
		if got[reject] {
			t.Errorf("EH selected %s", reject)
		}
	}
}

func TestPAIsSubsetOfExtended(t *testing.T) {
	pr, _ := placementSystem(t)
	th := DefaultThresholds()
	pa := selectedSet(SelectPA(pr, th))
	ext := selectedSet(SelectExtended(pr, th))
	for s := range pa {
		if !ext[s] {
			t.Errorf("PA selection %s missing from extended selection", s)
		}
	}
}

func TestSelectionSelectedOrderedByExposure(t *testing.T) {
	pr, _ := placementSystem(t)
	sel := SelectExtended(pr, DefaultThresholds())
	picked := sel.Selected()
	for i := 1; i < len(picked); i++ {
		prev, _ := sel.Candidate(picked[i-1])
		cur, _ := sel.Candidate(picked[i])
		if prev.Exposure < cur.Exposure {
			t.Errorf("selection not exposure-ordered: %v", picked)
		}
	}
}

func TestSelectionCandidateUnknown(t *testing.T) {
	pr, _ := placementSystem(t)
	sel := SelectPA(pr, DefaultThresholds())
	if _, err := sel.Candidate("ghost"); err == nil {
		t.Error("Candidate(ghost) = nil error")
	}
}

func TestProfileBasics(t *testing.T) {
	pr, sys := placementSystem(t)
	if pr.System() != sys {
		t.Error("System() mismatch")
	}
	sp, err := pr.Signal("hot")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sp.Exposure, 0.95) {
		t.Errorf("hot exposure = %v, want 0.95", sp.Exposure)
	}
	if !approx(sp.Impact, 0.9) {
		t.Errorf("hot impact = %v, want 0.9", sp.Impact)
	}
	if !approx(sp.MaxInPermeability, 0.95) {
		t.Errorf("hot max-in-permeability = %v", sp.MaxInPermeability)
	}
	if _, err := pr.Signal("ghost"); err == nil {
		t.Error("Signal(ghost) = nil error")
	}

	// Output profile: impact on itself is 1.
	op, _ := pr.Signal("out")
	if op.Impact != 1 {
		t.Errorf("output impact = %v, want 1", op.Impact)
	}
}

// TestSignalOnShuffledProfile: a profile whose signals are not in
// dense order, or are a subset, still finds every signal by name.
func TestSignalOnShuffledProfile(t *testing.T) {
	pr, sys := placementSystem(t)
	sigs := pr.Signals()
	slices.Reverse(sigs)
	for name, shuffled := range map[string]*Profile{
		"reversed": NewProfile(pr.Permeability(), sigs),
		"subset":   NewProfile(pr.Permeability(), sigs[1:]),
	} {
		for _, want := range sigs {
			got, err := shuffled.Signal(want.Signal)
			if name == "subset" && want.Signal == sigs[0].Signal {
				if err == nil {
					t.Errorf("%s: Signal(%s) found a dropped signal", name, want.Signal)
				}
				continue
			}
			if err != nil || got.Signal != want.Signal || got.Exposure != want.Exposure {
				t.Errorf("%s: Signal(%s) = %+v, %v; want %+v", name, want.Signal, got, err, want)
			}
		}
	}
	if len(sigs) != sys.NumSignals() {
		t.Fatalf("profile has %d signals, system %d", len(sigs), sys.NumSignals())
	}
}

func TestProfileRanked(t *testing.T) {
	pr, _ := placementSystem(t)
	byX := pr.Ranked(ByExposure)
	for i := 1; i < len(byX); i++ {
		if byX[i-1].Exposure < byX[i].Exposure {
			t.Fatalf("exposure ranking not descending at %d", i)
		}
	}
	byI := pr.Ranked(ByImpact)
	for i := 1; i < len(byI); i++ {
		if byI[i-1].Impact < byI[i].Impact {
			t.Fatalf("impact ranking not descending at %d", i)
		}
	}
	byC := pr.Ranked(ByCriticality)
	for i := 1; i < len(byC); i++ {
		if byC[i-1].Criticality < byC[i].Criticality {
			t.Fatalf("criticality ranking not descending at %d", i)
		}
	}
}

func TestMetricAndTreeKindStrings(t *testing.T) {
	for _, m := range []Metric{ByExposure, ByImpact, ByCriticality, Metric(0)} {
		if m.String() == "" {
			t.Errorf("Metric(%d).String() empty", int(m))
		}
	}
	for _, k := range []TreeKind{KindTraceTree, KindBacktrackTree, KindImpactTree, TreeKind(0)} {
		if k.String() == "" {
			t.Errorf("TreeKind(%d).String() empty", int(k))
		}
	}
}

func TestExtendedUsesCriticalityOnMultiOutput(t *testing.T) {
	// Two outputs: a high-criticality actuator and a negligible
	// diagnostic. A signal that only impacts the diagnostic has high
	// impact but negligible criticality — R3 must judge it by
	// criticality on a multi-output system.
	sys, err := model.NewBuilder("multi-r3").
		AddSignal("in", model.Uint(16), model.AsSystemInput()).
		AddSignal("toAct", model.Uint(16)).
		AddSignal("toDiag", model.Uint(16)).
		AddSignal("act", model.Uint(16), model.AsSystemOutput(1.0)).
		AddSignal("diag", model.Uint(16), model.AsSystemOutput(0.01)).
		AddModule("SRC", model.In("in"), model.Out("toAct", "toDiag")).
		AddModule("SINK", model.In("toAct", "toDiag"), model.Out("act", "diag")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	p := NewPermeability(sys)
	p.MustSet("SRC", 1, 1, 0.1) // in -> toAct: low exposure
	p.MustSet("SRC", 1, 2, 0.1) // in -> toDiag: low exposure
	p.MustSet("SINK", 1, 1, 0.9)
	p.MustSet("SINK", 2, 2, 0.9) // toDiag impacts only the diagnostic
	pr, err := BuildProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	sel := SelectExtended(pr, DefaultThresholds())
	got := selectedSet(sel)
	// toAct: criticality = 1.0*0.9 = 0.9 >= 0.25 -> selected by R3.
	if !got["toAct"] {
		t.Error("toAct (high criticality) not selected")
	}
	// toDiag: impact 0.9 but criticality = 0.01*0.9 = 0.009 < 0.25 ->
	// rejected despite high impact.
	if got["toDiag"] {
		t.Error("toDiag selected despite negligible criticality")
	}
}
