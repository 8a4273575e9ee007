package target

import (
	"testing"

	"repro/internal/ea"
	"repro/internal/failure"
	"repro/internal/model"
)

func TestSetSizes(t *testing.T) {
	if got := len(EHSet()); got != 7 {
		t.Errorf("len(EHSet()) = %d, want 7", got)
	}
	if got := len(PASet()); got != 4 {
		t.Errorf("len(PASet()) = %d, want 4", got)
	}
	if got, want := len(ExtendedSet()), len(EHSet()); got != want {
		t.Errorf("len(ExtendedSet()) = %d, want %d", got, want)
	}
}

func TestEASpecsNameExistingSignals(t *testing.T) {
	sys := NewSystem()
	for _, spec := range AllEASpecs() {
		if _, ok := sys.Signal(spec.Signal); !ok {
			t.Errorf("%s guards unknown signal %q", spec.Name, spec.Signal)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
}

func TestSpecsForRejectsUnknownNames(t *testing.T) {
	if _, err := SpecsFor([]string{"EA99"}); err == nil {
		t.Error("unknown assertion name accepted")
	}
}

func TestSystemShapeMatchesPaper(t *testing.T) {
	sys := NewSystem()
	if got := len(sys.Modules()); got != 6 {
		t.Errorf("modules = %d, want 6", got)
	}
	inputs := sys.SystemInputs()
	if len(inputs) != 4 {
		t.Errorf("system inputs = %v, want 4", inputs)
	}
	// Each sensor register feeds exactly one module (paper Fig. 2).
	for _, in := range SystemInputs() {
		if got := len(sys.ConsumersOf(in)); got != 1 {
			t.Errorf("%s has %d consumers, want 1", in, got)
		}
	}
}

// TestSetCostsMatchPaperTable3 pins the derived resource footprints to
// the paper's published totals.
func TestSetCostsMatchPaperTable3(t *testing.T) {
	rig, err := NewRig(DefaultConfig(12000, 65, 1))
	if err != nil {
		t.Fatal(err)
	}
	bank, err := NewBank(rig, EHSet())
	if err != nil {
		t.Fatal(err)
	}
	if c := bank.TotalCost(); c.ROMBytes != 262 || c.RAMBytes != 94 {
		t.Errorf("EH cost = %d/%d bytes, want 262/94", c.ROMBytes, c.RAMBytes)
	}
	pa, err := bank.SubsetCost(PASet())
	if err != nil {
		t.Fatal(err)
	}
	if pa.ROMBytes != 150 || pa.RAMBytes != 54 {
		t.Errorf("PA cost = %d/%d bytes, want 150/54", pa.ROMBytes, pa.RAMBytes)
	}
}

// TestSmokeArrest is the basic liveness check: a mid-weight aircraft at
// cruise engagement speed must be arrested well within 30 s, inside the
// runway, under the structural limits, with no assertion firing.
func TestSmokeArrest(t *testing.T) {
	rig, err := NewRig(DefaultConfig(12000, 65, 1))
	if err != nil {
		t.Fatal(err)
	}
	bank, err := NewBank(rig, EHSet())
	if err != nil {
		t.Fatal(err)
	}
	rig.Sched.OnPostSlot(bank.Hook)

	ok, err := rig.RunUntilArrested(30_000)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("not arrested after 30 s: v = %.1f m/s at %.1f m",
			rig.Plant.Velocity(), rig.Plant.Distance())
	}
	rep := failure.Classify(rig.Plant, rig.Arrested(), failure.DefaultLimits())
	if rep.Failed() {
		t.Errorf("golden arrest violates limits: %+v", rep)
	}
	if bank.Detected() {
		t.Errorf("assertions fired on a fault-free run: %v", bank.DetectedBy())
	}
}

// TestGoldenGridCleanAcrossCasesAndSets runs the full workload grid
// with every assertion set and the recovery wrappers deployed: nothing
// may fire on fault-free runs.
func TestGoldenGridCleanAcrossCasesAndSets(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid")
	}
	for _, tc := range DefaultTestCases() {
		rig, err := NewRig(tc.Config(1))
		if err != nil {
			t.Fatal(err)
		}
		bank, err := NewBank(rig, EHSet())
		if err != nil {
			t.Fatal(err)
		}
		rig.Sched.OnPostSlot(bank.Hook)
		wrappers, err := NewERMBank(rig, DefaultERMSpecs())
		if err != nil {
			t.Fatal(err)
		}
		ok, err := rig.RunUntilArrested(30_000)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("%v: not arrested: v = %.1f m/s at %.1f m",
				tc, rig.Plant.Velocity(), rig.Plant.Distance())
			continue
		}
		if err := rig.RunFor(500); err != nil {
			t.Fatal(err)
		}
		rep := failure.Classify(rig.Plant, true, failure.DefaultLimits())
		if rep.Failed() {
			t.Errorf("%v: limits violated: %+v", tc, rep)
		}
		if bank.Detected() {
			t.Errorf("%v: assertions fired fault-free: %v", tc, bank.DetectedBy())
		}
		if wrappers.Recovered() {
			t.Errorf("%v: wrappers fired fault-free: %v", tc, wrappers.RecoveredBy())
		}
	}
}

func TestClockPublishesSlotZeroAtFrameBoundaries(t *testing.T) {
	rig, err := NewRig(DefaultConfig(8000, 50, 1))
	if err != nil {
		t.Fatal(err)
	}
	var bad int
	rig.Sched.OnPostSlot(func(nowMs int64) {
		if nowMs%ControlPeriodMs == 0 && rig.Bus.Peek(SigMsSlotNbr) != 0 {
			bad++
		}
	})
	if err := rig.RunFor(2000); err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Errorf("%d frame boundaries with nonzero slot selector", bad)
	}
}

func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{
		{MassKg: 0, EngageVelocityMps: 65},
		{MassKg: 12000, EngageVelocityMps: 0},
		{MassKg: 900, EngageVelocityMps: 65},
		{MassKg: 12000, EngageVelocityMps: 200},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if err := DefaultConfig(12000, 65, 1).Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestDefaultTestCaseIDsUniqueAndValid(t *testing.T) {
	seen := make(map[int]bool)
	for _, tc := range DefaultTestCases() {
		if seen[tc.ID] {
			t.Errorf("duplicate case ID %d", tc.ID)
		}
		seen[tc.ID] = true
		if err := tc.Config(1).Validate(); err != nil {
			t.Errorf("%v: %v", tc, err)
		}
	}
	if len(seen) != 25 {
		t.Errorf("cases = %d, want 25", len(seen))
	}
}

func TestAllSignalsDeclared(t *testing.T) {
	sys := NewSystem()
	for _, id := range AllSignals() {
		if _, ok := sys.Signal(id); !ok {
			t.Errorf("AllSignals lists unknown %q", id)
		}
	}
	if got, want := len(AllSignals()), len(sys.Signals()); got != want {
		t.Errorf("AllSignals lists %d signals, system has %d", got, want)
	}
}

// TestEABudgetsAreDerived guards against accidental cost overrides:
// the paper totals must come from the derived per-kind costs.
func TestEABudgetsAreDerived(t *testing.T) {
	for _, spec := range AllEASpecs() {
		if !spec.Cost.IsZero() {
			t.Errorf("%s has an explicit cost override", spec.Name)
		}
		if spec.Kind == ea.KindBool {
			t.Errorf("%s guards a boolean: banks reject these", spec.Name)
		}
	}
}

// SystemInputs returns the sensor registers refreshed by the
// environment before every slot.
func SystemInputs() []model.SignalID {
	return []model.SignalID{SigPACNT, SigTIC1, SigTCNT, SigADC}
}
