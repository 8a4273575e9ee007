package report

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ea"
	"repro/internal/experiment"
	"repro/internal/paper"
	"repro/internal/stats"
	"repro/internal/target"
)

func paperProfile(t *testing.T) *core.Profile {
	t.Helper()
	pr, err := core.BuildProfile(paper.Table1())
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func TestTable1Rendering(t *testing.T) {
	out := Table1(paper.Table1())
	for _, want := range []string{
		"Table 1", "PACNT", "pulscnt", "P^DIST_S_{1,1}", "0.957",
		"P^V_REG_{2,1}", "0.896",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
	if got := strings.Count(out, "P^"); got != 25 {
		t.Errorf("Table1 has %d pair rows, want 25", got)
	}
}

func TestTable2Rendering(t *testing.T) {
	pr := paperProfile(t)
	sel := core.SelectPA(pr, core.DefaultThresholds())
	out := Table2(pr, sel)
	for _, want := range []string{"OutValue", "1.781", "yes", "no", "boolean"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q", want)
		}
	}
	// System inputs are not tabulated.
	if strings.Contains(out, "PACNT") {
		t.Error("Table2 tabulates system input PACNT")
	}
}

func TestTable3Rendering(t *testing.T) {
	var rows []Table3Row
	inPA := map[string]bool{}
	for _, n := range target.PASet() {
		inPA[n] = true
	}
	for _, spec := range target.AllEASpecs() {
		a, err := ea.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, Table3Row{
			Name: spec.Name, Signal: spec.Signal,
			InEH: true, InPA: inPA[spec.Name], Cost: a.Cost(),
		})
	}
	out := Table3(rows)
	for _, want := range []string{"262/94", "150/54", "EA5", "ms_slot_nbr", "Memory reduction PA vs EH: 43%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table3 missing %q in:\n%s", want, out)
		}
	}
}

func syntheticCoverage() *experiment.InputCoverageResult {
	row := experiment.CoverageRow{
		Signal:   target.SigPACNT,
		Injected: 100, Active: 90,
		PerEA: map[string]stats.Proportion{
			target.EA4: {Successes: 80, Trials: 90},
			target.EA1: {},
		},
		PerSet: map[string]stats.Proportion{
			experiment.SetEH: {Successes: 82, Trials: 90},
			experiment.SetPA: {Successes: 82, Trials: 90},
		},
	}
	all := row
	all.Signal = "All"
	return &experiment.InputCoverageResult{Rows: []experiment.CoverageRow{row}, All: all}
}

func TestTable4Rendering(t *testing.T) {
	out := Table4(syntheticCoverage(), []string{target.EA1, target.EA4})
	for _, want := range []string{"PACNT", "90", "0.889", "-", "EH-total", "All"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table4 missing %q in:\n%s", want, out)
		}
	}
}

func TestFigure3Rendering(t *testing.T) {
	mk := func(tot, fail, nofail int, n int) experiment.SetCoverage {
		return experiment.SetCoverage{
			Tot:    stats.Proportion{Successes: tot, Trials: n},
			Fail:   stats.Proportion{Successes: fail, Trials: n / 4},
			NoFail: stats.Proportion{Successes: nofail, Trials: n - n/4},
		}
	}
	region := func(name string) experiment.RegionCoverage {
		return experiment.RegionCoverage{
			Region: name,
			Runs:   100, Failures: 25,
			PerSet: map[string]experiment.SetCoverage{
				experiment.SetEH:       mk(40, 20, 20, 100),
				experiment.SetPA:       mk(20, 15, 5, 100),
				experiment.SetExtended: mk(40, 20, 20, 100),
			},
		}
	}
	res := &experiment.InternalCoverageResult{
		RAM: region("RAM"), Stack: region("Stack"), Total: region("Total"),
		RAMLocations: 150, StackLocations: 50,
	}
	out := Figure3(res)
	for _, want := range []string{"Figure 3", "RAM", "Stack", "Total", "c_tot", "c_fail", "c_nofail", "150 RAM", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure3 missing %q", want)
		}
	}
}

func TestFigure4Rendering(t *testing.T) {
	out, err := Figure4(paper.Table1(), target.SigPulscnt, target.SigTOC2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 4", "impact tree rooted at pulscnt", "w1 =", "Impact(pulscnt -> TOC2) = 0.021"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure4 missing %q in:\n%s", want, out)
		}
	}
	if _, err := Figure4(paper.Table1(), "ghost", target.SigTOC2); err == nil {
		t.Error("Figure4(ghost) = nil error")
	}
}

func TestProfileFigures(t *testing.T) {
	pr := paperProfile(t)
	fig5 := ProfileFigure(pr, core.ByExposure, "Figure 5: exposure profile of target system")
	if !strings.Contains(fig5, "OutValue") || !strings.Contains(fig5, "1.781") {
		t.Errorf("Figure 5 missing top exposure signal:\n%s", fig5)
	}
	fig6 := ProfileFigure(pr, core.ByImpact, "Figure 6: impact profile of target system")
	if !strings.Contains(fig6, "0.784") {
		t.Errorf("Figure 6 missing IsValue impact:\n%s", fig6)
	}
	// The two profiles must differ — the paper's point.
	if fig5 == fig6 {
		t.Error("exposure and impact profiles identical")
	}
	figC := ProfileFigure(pr, core.ByCriticality, "criticality")
	if len(figC) == 0 {
		t.Error("criticality profile empty")
	}
}

func TestTable5Rendering(t *testing.T) {
	out := Table5(paperProfile(t), target.SigTOC2)
	for _, want := range []string{"Table 5", "0.774", "0.691", "0.410"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table5 missing %q", want)
		}
	}
	// TOC2 row shows a dash for impact on itself.
	if !strings.Contains(out, "TOC2") {
		t.Error("Table5 missing TOC2 row")
	}
}

func TestPermeabilityComparison(t *testing.T) {
	p := paper.Table1()
	out := PermeabilityComparison(p, p)
	if !strings.Contains(out, "mean |diff| = 0.000") {
		t.Errorf("self-comparison nonzero:\n%s", out)
	}
}

func TestBarClamps(t *testing.T) {
	if got := bar(-0.5, 10); got != ".........." {
		t.Errorf("bar(-0.5) = %q", got)
	}
	if got := bar(2.0, 10); got != "##########" {
		t.Errorf("bar(2) = %q", got)
	}
	if got := bar(0.5, 10); got != "#####....." {
		t.Errorf("bar(0.5) = %q", got)
	}
}
