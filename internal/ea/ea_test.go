package ea

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func behaviourSpec() Spec {
	return Spec{
		Name: "EAb", Signal: "s", Kind: KindBehaviour,
		Min: 0, Max: 1000, MaxUp: 50, MaxDown: 50,
	}
}

func TestSpecValidate(t *testing.T) {
	tests := []struct {
		name    string
		spec    Spec
		wantSub string
	}{
		{"no signal", Spec{Name: "x", Kind: KindBool}, "no signal"},
		{"max below min", Spec{Name: "x", Signal: "s", Kind: KindBehaviour, Min: 10, Max: 5}, "Max"},
		{"negative rates", Spec{Name: "x", Signal: "s", Kind: KindBehaviour, Max: 5, MaxUp: -1}, "rate"},
		{"counter no width", Spec{Name: "x", Signal: "s", Kind: KindCounter}, "WrapWidth"},
		{"counter bad steps", Spec{Name: "x", Signal: "s", Kind: KindCounter, WrapWidth: 16, MinStep: 5, MaxStep: 2}, "MaxStep"},
		{"sequence bad modulo", Spec{Name: "x", Signal: "s", Kind: KindSequence, Modulo: 1}, "Modulo"},
		{"sequence negative", Spec{Name: "x", Signal: "s", Kind: KindSequence, Modulo: 10, AllowExtra: -1}, "negative"},
		{"unknown kind", Spec{Name: "x", Signal: "s", Kind: Kind(42)}, "unknown kind"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.spec.Validate()
			if err == nil {
				t.Fatal("Validate() = nil, want error")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error %q missing %q", err, tt.wantSub)
			}
		})
	}
	if err := behaviourSpec().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestBehaviourRangeCheck(t *testing.T) {
	a := MustNew(behaviourSpec())
	if a.Check(500, 0) {
		t.Error("in-range first value fired")
	}
	if !a.Check(1001, 10) {
		t.Error("out-of-range value did not fire")
	}
	if !a.Check(-1, 20) {
		t.Error("negative value did not fire")
	}
	if got := a.Detections(); got != 2 {
		t.Errorf("Detections() = %d, want 2", got)
	}
	if got := a.FirstDetectionMs(); got != 10 {
		t.Errorf("FirstDetectionMs() = %d, want 10", got)
	}
}

func TestBehaviourRateCheck(t *testing.T) {
	a := MustNew(behaviourSpec())
	a.Check(500, 0)
	if a.Check(540, 10) {
		t.Error("+40 within MaxUp fired")
	}
	if !a.Check(620, 20) {
		t.Error("+80 beyond MaxUp did not fire")
	}
	a.Reset()
	a.Check(500, 0)
	if !a.Check(420, 10) {
		t.Error("-80 beyond MaxDown did not fire")
	}
}

func TestBehaviourSaturationExemption(t *testing.T) {
	a := MustNew(behaviourSpec())
	a.Check(500, 0)
	if a.Check(1000, 10) {
		t.Error("jump to Max rail fired despite saturation exemption")
	}
	if a.Check(300, 20) {
		t.Error("jump off Max rail fired despite saturation exemption")
	}
	a.Reset()
	a.Check(400, 0)
	if a.Check(0, 10) {
		t.Error("jump to Min rail fired despite saturation exemption")
	}
}

func TestBehaviourFirstSampleNoRate(t *testing.T) {
	a := MustNew(behaviourSpec())
	// First check has no previous value: only the range applies.
	if a.Check(999, 0) {
		t.Error("first in-range sample fired")
	}
}

func TestCounterCheck(t *testing.T) {
	a := MustNew(Spec{
		Name: "EAc", Signal: "c", Kind: KindCounter,
		MinStep: 0, MaxStep: 10, WrapWidth: 16,
	})
	a.Check(100, 0)
	if a.Check(108, 10) {
		t.Error("+8 step fired")
	}
	if !a.Check(150, 20) {
		t.Error("+42 step did not fire")
	}
	if !a.Check(149, 30) {
		t.Error("decrement (wraps to huge delta) did not fire")
	}
}

func TestCounterWrapAround(t *testing.T) {
	a := MustNew(Spec{
		Name: "EAc", Signal: "c", Kind: KindCounter,
		MinStep: 0, MaxStep: 10, WrapWidth: 16,
	})
	a.Check(65533, 0)
	if a.Check(2, 10) { // 65533 -> 2 is +5 modulo 2^16
		t.Error("legitimate wrap-around fired")
	}
}

func TestCounterMinStep(t *testing.T) {
	a := MustNew(Spec{
		Name: "EAm", Signal: "m", Kind: KindCounter,
		MinStep: 10, MaxStep: 10, WrapWidth: 16,
	})
	a.Check(0, 0)
	if a.Check(10, 10) {
		t.Error("exact step fired")
	}
	if !a.Check(15, 20) {
		t.Error("+5 step below MinStep=10 did not fire")
	}
}

func TestSequenceCheck(t *testing.T) {
	a := MustNew(Spec{
		Name: "EAs", Signal: "s", Kind: KindSequence,
		Modulo: 10, StepPerPeriod: 0, AllowExtra: 2,
	})
	a.Check(3, 0)
	if a.Check(3, 10) {
		t.Error("expected repeat fired")
	}
	if a.Check(5, 20) {
		t.Error("+2 within AllowExtra fired")
	}
	if !a.Check(1, 30) { // 5 -> 1 is 6 forward steps
		t.Error("+6 forward shift did not fire")
	}
	if !a.Check(20, 40) {
		t.Error("out-of-domain value did not fire")
	}
}

func TestSequenceWithStep(t *testing.T) {
	a := MustNew(Spec{
		Name: "EAs", Signal: "s", Kind: KindSequence,
		Modulo: 8, StepPerPeriod: 3, AllowExtra: 0,
	})
	a.Check(0, 0)
	for i, want := range []model.Word{3, 6, 1, 4, 7, 2} {
		if a.Check(want, int64(10*(i+1))) {
			t.Fatalf("legitimate +3 mod 8 sequence fired at step %d", i)
		}
	}
	if !a.Check(4, 100) { // expected 5
		t.Error("off-sequence value did not fire")
	}
}

func TestBoolCheck(t *testing.T) {
	a := MustNew(Spec{Name: "EAb", Signal: "b", Kind: KindBool})
	if a.Check(0, 0) || a.Check(1, 10) {
		t.Error("boolean domain values fired")
	}
	if !a.Check(2, 20) {
		t.Error("out-of-domain boolean did not fire")
	}
}

func TestWarmupSuppression(t *testing.T) {
	spec := behaviourSpec()
	spec.WarmupChecks = 2
	a := MustNew(spec)
	if a.Check(5000, 0) {
		t.Error("warmup check 0 fired")
	}
	if a.Check(5000, 10) {
		t.Error("warmup check 1 fired")
	}
	if !a.Check(5000, 20) {
		t.Error("post-warmup out-of-range did not fire")
	}
}

func TestResetClearsAccounting(t *testing.T) {
	a := MustNew(behaviourSpec())
	a.Check(2000, 5)
	if !a.Detected() {
		t.Fatal("setup: no detection")
	}
	a.Reset()
	if a.Detected() || a.Detections() != 0 || a.FirstDetectionMs() != -1 {
		t.Error("Reset did not clear accounting")
	}
}

func TestDerivedCosts(t *testing.T) {
	tests := []struct {
		kind    Kind
		wantROM int
		wantRAM int
	}{
		{KindBehaviour, 50, 14},
		{KindCounter, 25, 13},
		{KindSequence, 37, 13},
		{KindBool, 12, 2},
	}
	for _, tt := range tests {
		got := derivedCost(tt.kind)
		if got.ROMBytes != tt.wantROM || got.RAMBytes != tt.wantRAM {
			t.Errorf("%v cost = %d/%d, want %d/%d", tt.kind, got.ROMBytes, got.RAMBytes, tt.wantROM, tt.wantRAM)
		}
		if got.Cycles <= 0 {
			t.Errorf("%v has no cycle cost", tt.kind)
		}
	}
}

func TestExplicitCostOverride(t *testing.T) {
	spec := behaviourSpec()
	spec.Cost = Cost{ROMBytes: 1, RAMBytes: 2, Cycles: 3}
	a := MustNew(spec)
	if got := a.Cost(); got != spec.Cost {
		t.Errorf("Cost() = %+v, want override %+v", got, spec.Cost)
	}
}

// Property: a behaviour assertion never fires on a slowly varying
// in-range signal, and always fires on a value outside [Min, Max].
func TestQuickBehaviourSoundness(t *testing.T) {
	f := func(walk []int8, outlier uint16) bool {
		a := MustNew(behaviourSpec())
		v := model.Word(500)
		now := int64(0)
		for _, d := range walk {
			step := model.Word(d) % 50
			v += step
			if v < 1 {
				v = 1
			}
			if v > 999 {
				v = 999
			}
			if a.Check(v, now) {
				return false // in-range slow walk must never fire
			}
			now += 10
		}
		return a.Check(model.Word(outlier)+1001, now) // out of range must fire
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a counter assertion accepts any trajectory whose per-period
// deltas stay within [MinStep, MaxStep], including across wrap.
func TestQuickCounterAcceptsLegitimateSteps(t *testing.T) {
	f := func(steps []uint8, start uint16) bool {
		a := MustNew(Spec{
			Name: "c", Signal: "c", Kind: KindCounter,
			MinStep: 0, MaxStep: 255, WrapWidth: 16,
		})
		v := model.Word(start)
		now := int64(0)
		for _, s := range steps {
			v = (v + model.Word(s)) & 0xFFFF
			if a.Check(v, now) {
				return false
			}
			now += 10
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// MustNew is New that panics on error, for statically-known specs.
func MustNew(spec Spec) *Assertion {
	a, err := New(spec)
	if err != nil {
		panic(err)
	}
	return a
}

// Detections returns how many checks fired in the current run.
func (a *Assertion) Detections() int { return a.detections }
