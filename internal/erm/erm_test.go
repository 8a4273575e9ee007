package erm

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func wrapSpec(policy Policy) Spec {
	return Spec{
		Name: "W", Signal: "s", Policy: policy,
		Min: 0, Max: 1000, MaxUp: 50, MaxDown: 50,
	}
}

func TestSpecValidate(t *testing.T) {
	tests := []struct {
		name    string
		spec    Spec
		wantSub string
	}{
		{"no signal", Spec{Name: "x", Policy: PolicyHoldLast}, "no signal"},
		{"max below min", Spec{Name: "x", Signal: "s", Min: 5, Max: 1, Policy: PolicyHoldLast}, "Max"},
		{"negative rate", Spec{Name: "x", Signal: "s", Max: 10, MaxUp: -1, Policy: PolicyHoldLast}, "rate"},
		{"no policy", Spec{Name: "x", Signal: "s", Max: 10}, "policy"},
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
}

func TestWrapperHoldLast(t *testing.T) {
	w, err := NewWrapper(wrapSpec(PolicyHoldLast))
	if err != nil {
		t.Fatal(err)
	}
	if got := w.apply(100); got != 100 {
		t.Errorf("plausible first write = %d", got)
	}
	if got := w.apply(130); got != 130 {
		t.Errorf("plausible delta = %d", got)
	}
	// Implausible jump: held at the previous value.
	w.Hook(500)
	if got := w.apply(900); got != 130 {
		t.Errorf("implausible jump = %d, want held 130", got)
	}
	if w.Recoveries() != 1 {
		t.Errorf("Recoveries = %d", w.Recoveries())
	}
	if got := w.FirstRecoveryMs(); got != 500 {
		t.Errorf("FirstRecoveryMs = %d", got)
	}
	// Recovery resets the reference: a subsequent plausible step passes.
	if got := w.apply(160); got != 160 {
		t.Errorf("post-recovery step = %d", got)
	}
}

func TestWrapperClamp(t *testing.T) {
	w, err := NewWrapper(wrapSpec(PolicyClamp))
	if err != nil {
		t.Fatal(err)
	}
	w.apply(100)
	if got := w.apply(900); got != 150 {
		t.Errorf("clamped jump = %d, want prev+MaxUp = 150", got)
	}
	if got := w.apply(-500); got != 100 {
		t.Errorf("clamped drop = %d, want prev-MaxDown = 100", got)
	}
	// Out-of-range clamps to the range first.
	w2, _ := NewWrapper(Spec{Name: "r", Signal: "s", Min: 0, Max: 1000, Policy: PolicyClamp})
	if got := w2.apply(4000); got != 1000 {
		t.Errorf("range clamp = %d, want 1000", got)
	}
}

func TestWrapperWarmupAndZeroRates(t *testing.T) {
	s := wrapSpec(PolicyHoldLast)
	s.WarmupWrites = 2
	w, _ := NewWrapper(s)
	w.apply(0)
	if got := w.apply(800); got != 800 {
		t.Errorf("warmup write rate-checked: %d", got)
	}
	// Zero rate limits disable the rate check entirely.
	s2 := Spec{Name: "z", Signal: "s", Min: 0, Max: 1000, Policy: PolicyHoldLast}
	w2, _ := NewWrapper(s2)
	w2.apply(0)
	if got := w2.apply(999); got != 999 {
		t.Errorf("no-rate wrapper blocked a jump: %d", got)
	}
}

// Property: a hold-last wrapper's output is always within [Min, Max]
// once initialized with a plausible value, for any write sequence.
func TestQuickWrapperOutputAlwaysPlausible(t *testing.T) {
	f := func(writes []int16) bool {
		w, err := NewWrapper(wrapSpec(PolicyHoldLast))
		if err != nil {
			return false
		}
		w.apply(500)
		for _, v := range writes {
			got := w.apply(model.Word(v))
			if got < 0 || got > 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: clamp recovery moves any proposed value by the minimum
// needed: plausible writes are never altered.
func TestQuickClampIdentityOnPlausible(t *testing.T) {
	f := func(step int8) bool {
		w, err := NewWrapper(wrapSpec(PolicyClamp))
		if err != nil {
			return false
		}
		w.apply(500)
		d := model.Word(step) % 50
		want := 500 + d
		return w.apply(want) == want && w.Recoveries() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBankOnBus(t *testing.T) {
	sys, err := model.NewBuilder("b").
		AddSignal("in", model.Uint(16), model.AsSystemInput()).
		AddSignal("s", model.Uint(16)).
		AddSignal("o", model.Uint(16), model.AsSystemOutput(1)).
		AddModule("M", model.In("in"), model.Out("s")).
		AddModule("N", model.In("s"), model.Out("o")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	bus := model.NewBus(sys)
	bank, err := NewBank(bus, []Spec{{
		Name: "W-s", Signal: "s", Min: 0, Max: 100, Policy: PolicyHoldLast,
	}})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := sys.Module("M")
	ex := model.NewExec(bus, m, 0)
	ex.Out(1, 50)
	ex.Out(1, 5000) // implausible: held at 50
	if got := bus.Peek("s"); got != 50 {
		t.Errorf("bus value = %d, want recovered 50", got)
	}
	if !bank.Recovered() || bank.TotalRecoveries() != 1 {
		t.Errorf("bank accounting: recovered=%v total=%d", bank.Recovered(), bank.TotalRecoveries())
	}
	if got := bank.RecoveredBy(); len(got) != 1 || got[0] != "W-s" {
		t.Errorf("RecoveredBy = %v", got)
	}
	bank.Reset()
	if bank.Recovered() {
		t.Error("Recovered after Reset")
	}
}

func TestBankErrors(t *testing.T) {
	sys, err := model.NewBuilder("b").
		AddSignal("in", model.Uint(16), model.AsSystemInput()).
		AddSignal("o", model.Uint(16), model.AsSystemOutput(1)).
		AddModule("M", model.In("in"), model.Out("o")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	bus := model.NewBus(sys)
	if _, err := NewBank(bus, []Spec{{Name: "x", Signal: "ghost", Max: 1, Policy: PolicyHoldLast}}); err == nil {
		t.Error("unknown signal accepted")
	}
	if _, err := NewBank(bus, []Spec{
		{Name: "x", Signal: "o", Max: 1, Policy: PolicyHoldLast},
		{Name: "x", Signal: "o", Max: 1, Policy: PolicyHoldLast},
	}); err == nil {
		t.Error("duplicate wrapper accepted")
	}
	if _, err := NewBank(bus, []Spec{{Name: "x", Signal: "o", Min: 5, Max: 1, Policy: PolicyHoldLast}}); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestPolicyString(t *testing.T) {
	for _, p := range []Policy{PolicyHoldLast, PolicyClamp, Policy(9)} {
		if p.String() == "" {
			t.Errorf("Policy(%d).String() empty", int(p))
		}
	}
}

// FirstRecoveryMs returns the time of the first recovery, or -1.
func (w *Wrapper) FirstRecoveryMs() int64 { return w.firstMs }
