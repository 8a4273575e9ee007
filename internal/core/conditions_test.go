package core

import (
	"strings"
	"testing"
)

func TestCheckConformanceFindsViolations(t *testing.T) {
	pr, _ := placementSystem(t)
	c := Conditions{
		MaxModulePermeability: 0.5,
		MaxModuleExposure:     0.5,
		MaxSignalExposure:     0.9,
		MaxSignalImpact:       0.5,
	}
	findings, err := CheckConformance(pr, c)
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[ConformanceKind][]ConformanceFinding{}
	for _, f := range findings {
		byKind[f.Kind] = append(byKind[f.Kind], f)
	}

	// SRC lets 0.95+1.0+0.05+0.95 through over 4 pairs = 0.7375 > 0.5.
	found := false
	for _, f := range byKind[KindModulePermeability] {
		if f.Module == "SRC" {
			found = true
			if f.Value <= f.Limit {
				t.Errorf("finding value %v not above limit %v", f.Value, f.Limit)
			}
		}
	}
	if !found {
		t.Error("SRC permeability violation not found")
	}

	// hot (0.95) and dead (1.0) exceed the signal exposure limit.
	sigs := map[string]bool{}
	for _, f := range byKind[KindSignalExposure] {
		sigs[string(f.Signal)] = true
	}
	if !sigs["hot"] || !sigs["dead"] {
		t.Errorf("signal exposure violations = %v, want hot and dead", sigs)
	}

	// rare/hot/flag impact 0.9 > 0.5; the output itself is exempt.
	for _, f := range byKind[KindSignalImpact] {
		if f.Signal == "out" {
			t.Error("system output flagged for impact on itself")
		}
	}
	if len(byKind[KindSignalImpact]) == 0 {
		t.Error("no impact violations found")
	}

	// Findings render with advice.
	if s := findings[0].String(); !strings.Contains(s, "exceeds limit") {
		t.Errorf("finding String() = %q", s)
	}
}

func TestCheckConformanceDisabled(t *testing.T) {
	pr, _ := placementSystem(t)
	findings, err := CheckConformance(pr, Conditions{
		MaxModulePermeability: -1,
		MaxModuleExposure:     -1,
		MaxSignalExposure:     -1,
		MaxSignalImpact:       -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("disabled conditions produced %d findings", len(findings))
	}
}

func TestCheckConformanceZeroLimitsFlagEverythingNonzero(t *testing.T) {
	pr, _ := placementSystem(t)
	findings, err := CheckConformance(pr, Conditions{
		MaxModulePermeability: 0,
		MaxModuleExposure:     0,
		MaxSignalExposure:     0,
		MaxSignalImpact:       0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) < 6 {
		t.Errorf("zero limits found only %d findings", len(findings))
	}
}

func TestSelectERM(t *testing.T) {
	pr, _ := placementSystem(t)
	p := pr.Permeability()

	cands, err := SelectERM(p, ModuleThresholds{PermeabilityMin: 0.8, ExposureMin: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	byMod := map[string]ModuleCandidate{}
	for _, c := range cands {
		byMod[string(c.Module)] = c
	}

	// SINK: permeability (0.9+0.9+0.9)/3 = 0.9 >= 0.8 -> R2 selects.
	sink := byMod["SINK"]
	if !sink.Selected {
		t.Error("SINK not selected despite high permeability")
	}
	hasRule := func(c ModuleCandidate, r Rule) bool {
		for _, got := range c.Rules {
			if got == r {
				return true
			}
		}
		return false
	}
	if !hasRule(sink, RuleR2Permeability) {
		t.Errorf("SINK rules = %v, want R2", sink.Rules)
	}

	// SRC: permeability 0.7375 < 0.8, exposure 0 (system input feed).
	src := byMod["SRC"]
	if src.Selected {
		t.Errorf("SRC selected: %+v", src)
	}
	if !hasRule(src, RejectContained) {
		t.Errorf("SRC rules = %v, want containment rejection", src.Rules)
	}
}

func TestSelectERMExposureRule(t *testing.T) {
	pr, _ := placementSystem(t)
	p := pr.Permeability()
	// With an exposure threshold SINK's mean input exposure
	// ((0.95 + 0.05 + 0.95)/3 = 0.65) crosses, R1 selects it even when
	// the permeability rule is out of reach.
	cands, err := SelectERM(p, ModuleThresholds{PermeabilityMin: 2, ExposureMin: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Module == "SINK" {
			if !c.Selected {
				t.Errorf("SINK not selected by exposure rule: %+v", c)
			}
			found := false
			for _, r := range c.Rules {
				if r == RuleR1ModuleExposure {
					found = true
				}
			}
			if !found {
				t.Errorf("SINK rules = %v, want module-exposure rule", c.Rules)
			}
		}
	}
}

func TestConformanceKindStrings(t *testing.T) {
	for _, k := range []ConformanceKind{
		KindModulePermeability, KindModuleExposure,
		KindSignalExposure, KindSignalImpact, ConformanceKind(0),
	} {
		if k.String() == "" {
			t.Errorf("ConformanceKind(%d).String() empty", int(k))
		}
	}
}
