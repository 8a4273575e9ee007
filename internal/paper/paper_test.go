package paper

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/target"
)

// Table2Exposures returns the signal error exposures of Table 2.
func Table2Exposures() map[model.SignalID]float64 {
	return map[model.SignalID]float64{
		target.SigOutValue:  1.781,
		target.SigI:         1.507,
		target.SigSetValue:  1.478,
		target.SigMsSlotNbr: 1.000,
		target.SigPulscnt:   0.957,
		target.SigTOC2:      0.875,
		target.SigSlowSpeed: 0.010,
		target.SigIsValue:   0.000,
		target.SigMscnt:     0.000,
		target.SigStopped:   0.000,
	}
}

// Table5Impacts returns the impact values on TOC2 of Table 5. TOC2
// itself has no entry in the paper ("one could say that the impact is
// 1.0 in this case") and is omitted.
func Table5Impacts() map[model.SignalID]float64 {
	return map[model.SignalID]float64{
		target.SigPACNT:     0.027,
		target.SigTCNT:      0.000,
		target.SigTIC1:      0.000,
		target.SigADC:       0.000,
		target.SigOutValue:  0.875,
		target.SigI:         0.043,
		target.SigSetValue:  0.774,
		target.SigMsSlotNbr: 0.000,
		target.SigPulscnt:   0.021,
		target.SigSlowSpeed: 0.691,
		target.SigIsValue:   0.784,
		target.SigMscnt:     0.410,
		target.SigStopped:   0.001,
	}
}

// Figure4Weights returns the two propagation-path weights of the impact
// tree for pulscnt → TOC2 (Figure 4), keyed by the first hop.
func Figure4Weights() map[model.SignalID]float64 {
	return map[model.SignalID]float64{
		target.SigI:        0.021, // pulscnt → i → SetValue → OutValue → TOC2
		target.SigSetValue: 0.000, // pulscnt → SetValue → OutValue → TOC2
	}
}

// PASelection returns the signals the PA-approach guarded (Section 5.3).
func PASelection() []model.SignalID {
	return []model.SignalID{
		target.SigSetValue, target.SigI, target.SigPulscnt, target.SigOutValue,
	}
}

// EHSelection returns the signals the EH-approach guarded (Section 5.1).
func EHSelection() []model.SignalID {
	return []model.SignalID{
		target.SigSetValue, target.SigIsValue, target.SigI, target.SigPulscnt,
		target.SigMsSlotNbr, target.SigMscnt, target.SigOutValue,
	}
}

// ExtendedSelection returns the signals the extended framework guarded
// (Section 10) — identical to the EH selection.
func ExtendedSelection() []model.SignalID { return EHSelection() }

// Table4 reports the published detection coverages for errors injected
// at the system inputs (input error model). Dashes in the paper are
// zero here.
type Table4Row struct {
	Signal   model.SignalID
	NErr     int
	Coverage map[string]float64 // per EA name
	Total    float64
}

// Table4 returns the published per-signal rows.
func Table4() []Table4Row {
	return []Table4Row{
		{
			Signal: target.SigPACNT, NErr: 1856,
			Coverage: map[string]float64{
				target.EA1: 0.218, target.EA2: 0.105, target.EA4: 0.975, target.EA7: 0.005,
			},
			Total: 0.975,
		},
		{Signal: target.SigTIC1, NErr: 3712, Coverage: map[string]float64{}, Total: 0},
		{Signal: target.SigTCNT, NErr: 3712, Coverage: map[string]float64{}, Total: 0},
	}
}

// TestTable2ExposuresReproduceExactly feeds Table 1 into the framework
// and checks every signal error exposure against Table 2 at the paper's
// printed precision (3 decimals).
func TestTable2ExposuresReproduceExactly(t *testing.T) {
	p := Table1()
	for sig, want := range Table2Exposures() {
		got, err := p.SignalExposure(sig)
		if err != nil {
			t.Fatalf("SignalExposure(%s): %v", sig, err)
		}
		if math.Abs(got-want) >= 0.0005 {
			t.Errorf("exposure(%s) = %.4f, want %.3f (Table 2)", sig, got, want)
		}
	}
}

// TestTable5ImpactsReproduceExactly checks every impact on TOC2 against
// Table 5 at printed precision.
func TestTable5ImpactsReproduceExactly(t *testing.T) {
	p := Table1()
	for sig, want := range Table5Impacts() {
		got, err := core.Impact(p, sig, target.SigTOC2)
		if err != nil {
			t.Fatalf("Impact(%s): %v", sig, err)
		}
		if math.Abs(got-want) >= 0.0005 {
			t.Errorf("impact(%s -> TOC2) = %.4f, want %.3f (Table 5)", sig, got, want)
		}
	}
	// TOC2 on itself: "one could say that the impact is 1.0".
	got, err := core.Impact(p, target.SigTOC2, target.SigTOC2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("impact(TOC2 -> TOC2) = %v, want 1", got)
	}
}

// TestFigure4ImpactTree reproduces the impact tree for pulscnt: exactly
// two propagation paths to TOC2 with the published weights, combining to
// the published impact 0.021.
func TestFigure4ImpactTree(t *testing.T) {
	p := Table1()
	tree, err := core.BuildImpactTree(p, target.SigPulscnt)
	if err != nil {
		t.Fatal(err)
	}
	paths := tree.PathsTo(target.SigTOC2)
	// Figure 4 draws two paths. Exhaustive enumeration finds one more —
	// pulscnt → i → mscnt → SetValue → ... — whose weight is 0 through
	// the zero-permeability i→mscnt pair; the figure omits it. Both
	// published paths must be present with their published weights, and
	// anything extra must weigh zero.
	if len(paths) < 2 {
		t.Fatalf("paths to TOC2 = %d, want >= 2 (Figure 4)", len(paths))
	}
	want := Figure4Weights()
	wantLen := map[model.SignalID]int{target.SigI: 5, target.SigSetValue: 4}
	seen := map[model.SignalID]bool{}
	for _, path := range paths {
		firstHop := path.Signals[1]
		w, ok := want[firstHop]
		if ok && !seen[firstHop] && len(path.Signals) == wantLen[firstHop] {
			seen[firstHop] = true
			if math.Abs(path.Weight-w) >= 0.0005 {
				t.Errorf("weight via %s = %.4f, want %.3f", firstHop, path.Weight, w)
			}
			continue
		}
		if path.Weight != 0 {
			t.Errorf("extra path %v has nonzero weight %v", path.Signals, path.Weight)
		}
	}
	for hop := range want {
		if !seen[hop] {
			t.Errorf("published Figure 4 path via %s not found", hop)
		}
	}
	if imp := core.ImpactFromPaths(paths); math.Abs(imp-0.021) >= 0.0005 {
		t.Errorf("combined impact = %.4f, want 0.021", imp)
	}

	// The w1 path is exactly pulscnt → i → SetValue → OutValue → TOC2.
	for _, path := range paths {
		if path.Signals[1] != target.SigI || len(path.Signals) != 5 {
			continue
		}
		wantSig := []model.SignalID{
			target.SigPulscnt, target.SigI, target.SigSetValue,
			target.SigOutValue, target.SigTOC2,
		}
		for i := range wantSig {
			if path.Signals[i] != wantSig[i] {
				t.Fatalf("w1 path = %v, want %v", path.Signals, wantSig)
			}
		}
	}
}

func asSet(ids []model.SignalID) map[model.SignalID]bool {
	out := make(map[model.SignalID]bool, len(ids))
	for _, id := range ids {
		out[id] = true
	}
	return out
}

// TestPASelectionReproduces runs the PA placement rules on the paper
// matrix and checks the selected signals are exactly the paper's PA set.
func TestPASelectionReproduces(t *testing.T) {
	pr, err := core.BuildProfile(Table1())
	if err != nil {
		t.Fatal(err)
	}
	sel := core.SelectPA(pr, core.DefaultThresholds())
	got := asSet(sel.Selected())
	want := asSet(PASelection())
	for s := range want {
		if !got[s] {
			t.Errorf("PA selection missing %s", s)
		}
	}
	for s := range got {
		if !want[s] {
			t.Errorf("PA selection includes %s, the paper did not", s)
		}
	}
}

// TestExtendedSelectionReproducesEHSet runs the extended rules and
// checks they re-derive the EH set (Section 10).
func TestExtendedSelectionReproducesEHSet(t *testing.T) {
	pr, err := core.BuildProfile(Table1())
	if err != nil {
		t.Fatal(err)
	}
	sel := core.SelectExtended(pr, core.DefaultThresholds())
	got := asSet(sel.Selected())
	want := asSet(ExtendedSelection())
	for s := range want {
		if !got[s] {
			t.Errorf("extended selection missing %s", s)
		}
	}
	for s := range got {
		if !want[s] {
			t.Errorf("extended selection includes %s, the paper did not", s)
		}
	}
}

// TestEHSelectionReproduces codifies the Section 5.1 heuristic and
// checks it yields the paper's seven signals.
func TestEHSelectionReproduces(t *testing.T) {
	sel := core.SelectEH(System())
	got := asSet(sel.Selected())
	want := asSet(EHSelection())
	for s := range want {
		if !got[s] {
			t.Errorf("EH selection missing %s", s)
		}
	}
	for s := range got {
		if !want[s] {
			t.Errorf("EH selection includes %s, the paper did not", s)
		}
	}
}

// TestTable2Motivations checks the rule engine reports the paper's
// motivations for the rejected signals of Table 2.
func TestTable2Motivations(t *testing.T) {
	pr, err := core.BuildProfile(Table1())
	if err != nil {
		t.Fatal(err)
	}
	sel := core.SelectPA(pr, core.DefaultThresholds())

	check := func(sig model.SignalID, want core.Rule) {
		t.Helper()
		c, err := sel.Candidate(sig)
		if err != nil {
			t.Fatal(err)
		}
		if c.Selected {
			t.Errorf("%s selected, paper rejected it", sig)
		}
		found := false
		for _, r := range c.Rules {
			if r == want {
				found = true
			}
		}
		if !found {
			t.Errorf("%s rules = %v, want %q", sig, c.Rules, want)
		}
	}
	// ms_slot_nbr: no onward propagation (the paper: zero permeability
	// onwards / no effect on the output).
	check(target.SigMsSlotNbr, core.RejectZeroImpact)
	// TOC2: "errors here most likely come from OutValue".
	check(target.SigTOC2, core.RejectSystemOutput)
	// slow_speed: "selected EA's not geared at boolean values".
	check(target.SigSlowSpeed, core.RejectBoolean)
	// IsValue, mscnt, stopped: zero exposure.
	for _, s := range []model.SignalID{target.SigIsValue, target.SigMscnt} {
		c, err := sel.Candidate(s)
		if err != nil {
			t.Fatal(err)
		}
		if c.Selected {
			t.Errorf("%s selected by PA, paper rejected it", s)
		}
	}
}

// TestModuleMeasuresSanity computes the module-level measures on the
// paper matrix — no published values exist, but the relative ordering
// must match the obvious reading of Table 1 (V_REG and PRES_A are the
// most permeable modules, PRES_S fully contains).
func TestModuleMeasuresSanity(t *testing.T) {
	p := Table1()
	rel := map[model.ModuleID]float64{}
	for _, m := range []model.ModuleID{
		target.ModClock, target.ModDistS, target.ModCalc,
		target.ModPresS, target.ModVReg, target.ModPresA,
	} {
		v, err := p.RelativePermeability(m)
		if err != nil {
			t.Fatal(err)
		}
		if v < 0 || v > 1 {
			t.Errorf("relative permeability of %s = %v outside [0,1]", m, v)
		}
		rel[m] = v
	}
	if rel[target.ModPresS] != 0 {
		t.Errorf("PRES_S relative permeability = %v, want 0 (full containment)", rel[target.ModPresS])
	}
	if rel[target.ModVReg] <= rel[target.ModDistS] {
		t.Errorf("V_REG (%v) must be more permeable than DIST_S (%v)", rel[target.ModVReg], rel[target.ModDistS])
	}
	if rel[target.ModPresA] <= rel[target.ModCalc] {
		t.Errorf("PRES_A (%v) must be more permeable than CALC (%v)", rel[target.ModPresA], rel[target.ModCalc])
	}
}

// TestTable4FixtureConsistent sanity-checks the published Table 4 rows.
func TestTable4FixtureConsistent(t *testing.T) {
	rows := Table4()
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	total := 0
	for _, r := range rows {
		total += r.NErr
		for ea, c := range r.Coverage {
			if c < 0 || c > 1 {
				t.Errorf("%s coverage of %s = %v outside [0,1]", r.Signal, ea, c)
			}
			if c > r.Total+1e-9 {
				t.Errorf("%s: EA %s coverage %v exceeds row total %v", r.Signal, ea, c, r.Total)
			}
		}
	}
	if total != 9280 {
		t.Errorf("total active errors = %d, want 9280 (Table 4 'All')", total)
	}
}

// TestPaperMatrixJSONRoundTrip locks the fixture's serialized form: the
// published Table 1 must survive the JSON round trip bit-exactly.
func TestPaperMatrixJSONRoundTrip(t *testing.T) {
	p := Table1()
	data, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.UnmarshalPermeability(System(), data)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range System().Edges() {
		if got.Get(e) != p.Get(e) {
			t.Errorf("edge %v: %v != %v after round trip", e, got.Get(e), p.Get(e))
		}
	}
	// 25 entries serialized, none dropped.
	if n := strings.Count(string(data), `"module"`); n != 25 {
		t.Errorf("serialized %d entries, want 25", n)
	}
}
