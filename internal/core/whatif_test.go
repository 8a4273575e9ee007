package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCloneIsIndependent(t *testing.T) {
	sys := chainSystem(t)
	p := NewPermeability(sys)
	p.MustSet("A", 1, 1, 0.5)
	cp := p.Clone()
	cp.MustSet("A", 1, 1, 0.9)
	if got, _ := p.Value("A", 1, 1); got != 0.5 {
		t.Errorf("mutating clone changed original: %v", got)
	}
	if got, _ := cp.Value("A", 1, 1); got != 0.9 {
		t.Errorf("clone value = %v", got)
	}
	// Nor does the clone see later writes to its source.
	p.MustSet("B", 2, 1, 0.7)
	if got, _ := cp.Value("B", 2, 1); got != 0 {
		t.Errorf("mutating original changed clone: %v", got)
	}
	scaled, err := p.ScaleModule("B", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p.MustSet("B", 2, 1, 0.1)
	if got, _ := scaled.Value("B", 2, 1); got != 0.35 {
		t.Errorf("ScaleModule copy = %v after the source changed, want 0.35", got)
	}
}

func TestScaleModule(t *testing.T) {
	sys := chainSystem(t)
	p := NewPermeability(sys)
	p.MustSet("A", 1, 1, 0.8)
	p.MustSet("A", 1, 2, 0.4)
	p.MustSet("B", 1, 1, 0.6)

	scaled, err := p.ScaleModule("A", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := scaled.Value("A", 1, 1); !approx(got, 0.4) {
		t.Errorf("A(1,1) = %v, want 0.4", got)
	}
	if got, _ := scaled.Value("A", 1, 2); !approx(got, 0.2) {
		t.Errorf("A(1,2) = %v, want 0.2", got)
	}
	// Other modules untouched; original untouched.
	if got, _ := scaled.Value("B", 1, 1); got != 0.6 {
		t.Errorf("B(1,1) = %v, want 0.6", got)
	}
	if got, _ := p.Value("A", 1, 1); got != 0.8 {
		t.Errorf("original mutated: %v", got)
	}

	// Scaling up clamps at 1.
	up, err := p.ScaleModule("A", 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := up.Value("A", 1, 1); got != 1 {
		t.Errorf("upscaled = %v, want clamp 1", got)
	}

	if _, err := p.ScaleModule("Z", 0.5); err == nil {
		t.Error("unknown module accepted")
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := p.ScaleModule("A", bad); err == nil {
			t.Errorf("factor %v accepted", bad)
		}
	}
}

// Property: scaling any module by f in [0,1] never increases any
// impact (monotonicity under containment).
func TestQuickContainmentMonotone(t *testing.T) {
	f := func(seed int64, modSel, fRaw uint8) bool {
		sys, p := randomDAG(seed)
		mods := sys.ModuleIDs()
		mod := mods[int(modSel)%len(mods)]
		factor := float64(fRaw) / 255
		scaled, err := p.ScaleModule(mod, factor)
		if err != nil {
			return false
		}
		for _, s := range sys.SignalIDs() {
			for _, o := range sys.SystemOutputs() {
				before, err1 := Impact(p, s, o)
				after, err2 := Impact(scaled, s, o)
				if err1 != nil || err2 != nil {
					return false
				}
				if after > before+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestWhatIfDrivesConformanceLoop(t *testing.T) {
	// The Section 9 loop: a violated impact condition, fixed by
	// containing the module the plan ranks highest.
	pr, _ := placementSystem(t)
	p := pr.Permeability()
	conds := Conditions{
		MaxModulePermeability: -1,
		MaxModuleExposure:     -1,
		MaxSignalExposure:     -1,
		MaxSignalImpact:       0.5,
	}
	findings, err := CheckConformance(pr, conds)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("setup: no impact violations")
	}

	contained, err := p.ScaleModule("SINK", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	pr2, err := BuildProfile(contained)
	if err != nil {
		t.Fatal(err)
	}
	findings2, err := CheckConformance(pr2, conds)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings2) >= len(findings) {
		t.Errorf("containment did not reduce findings: %d -> %d", len(findings), len(findings2))
	}
}

func TestScaleModuleEdgeFactors(t *testing.T) {
	sys := chainSystem(t)
	p := NewPermeability(sys)
	p.MustSet("A", 1, 1, 0.8)
	p.MustSet("A", 1, 2, 0.4)
	p.MustSet("B", 1, 1, 0.6)

	// Factor 0 zeroes the module's pairs exactly and leaves the rest.
	zeroed, err := p.ScaleModule("A", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := zeroed.Value("A", 1, 1); got != 0 {
		t.Errorf("A(1,1) = %v, want exactly 0", got)
	}
	if got, _ := zeroed.Value("A", 1, 2); got != 0 {
		t.Errorf("A(1,2) = %v, want exactly 0", got)
	}
	if got, _ := zeroed.Value("B", 1, 1); got != 0.6 {
		t.Errorf("B(1,1) = %v, want 0.6", got)
	}

	// Factor exactly 1 is a bit-identical no-op.
	same, err := p.ScaleModule("A", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sys.Edges() {
		if same.Get(e) != p.Get(e) {
			t.Errorf("factor-1 scale changed %v: %v -> %v", e, p.Get(e), same.Get(e))
		}
	}

	// A product landing exactly on 1 stays 1 without the clamp firing.
	exact, err := p.ScaleModule("A", 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := exact.Value("A", 1, 2); got != 1 {
		t.Errorf("A(1,2) scaled by 2.5 = %v, want exactly 1", got)
	}
	// 0.8 * 2.5 = 2 clamps to 1.
	if got, _ := exact.Value("A", 1, 1); got != 1 {
		t.Errorf("A(1,1) scaled by 2.5 = %v, want clamp to 1", got)
	}
}
