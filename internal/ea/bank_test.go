package ea

import (
	"strings"
	"testing"

	"repro/internal/model"
)

func bankSystem(t *testing.T) *model.Bus {
	t.Helper()
	sys, err := model.NewBuilder("bank").
		AddSignal("in", model.Uint(16), model.AsSystemInput()).
		AddSignal("sv", model.Uint(16)).
		AddSignal("ctr", model.Uint(16)).
		AddSignal("out", model.Uint(8), model.AsSystemOutput(1)).
		AddModule("M", model.In("in"), model.Out("sv", "ctr")).
		AddModule("N", model.In("sv", "ctr"), model.Out("out")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return model.NewBus(sys)
}

func bankSpecs() []Spec {
	return []Spec{
		{Name: "EA-sv", Signal: "sv", Kind: KindBehaviour, Min: 0, Max: 1000, MaxUp: 50, MaxDown: 50},
		{Name: "EA-ctr", Signal: "ctr", Kind: KindCounter, MinStep: 0, MaxStep: 10, WrapWidth: 16},
	}
}

func TestNewBankErrors(t *testing.T) {
	bus := bankSystem(t)
	if _, err := NewBank(bus, 0, bankSpecs()); err == nil {
		t.Error("zero period accepted")
	}
	bad := bankSpecs()
	bad[0].Signal = "ghost"
	if _, err := NewBank(bus, 10, bad); err == nil || !strings.Contains(err.Error(), "unknown signal") {
		t.Errorf("unknown signal not rejected: %v", err)
	}
	dup := bankSpecs()
	dup[1].Name = dup[0].Name
	if _, err := NewBank(bus, 10, dup); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate name not rejected: %v", err)
	}
	inv := bankSpecs()
	inv[0].Max = -5
	if _, err := NewBank(bus, 10, inv); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestBankChecksOnPeriodOnly(t *testing.T) {
	bus := bankSystem(t)
	b, err := NewBank(bus, 10, bankSpecs())
	if err != nil {
		t.Fatal(err)
	}
	bus.Poke("sv", 5000) // out of range
	b.Hook(3)            // off-period: no check
	if b.Detected() {
		t.Error("off-period hook performed a check")
	}
	b.Hook(10)
	if !b.Detected() {
		t.Error("on-period hook did not detect out-of-range value")
	}
}

func TestBankDetectedByAndFirstDetection(t *testing.T) {
	bus := bankSystem(t)
	b, err := NewBank(bus, 10, bankSpecs())
	if err != nil {
		t.Fatal(err)
	}
	bus.Poke("sv", 500)
	bus.Poke("ctr", 0)
	b.Hook(0)
	bus.Poke("ctr", 500) // counter jump
	b.Hook(10)
	if got := b.DetectedBy(); len(got) != 1 || got[0] != "EA-ctr" {
		t.Errorf("DetectedBy() = %v, want [EA-ctr]", got)
	}
	if got := b.FirstDetectionMs(); got != 10 {
		t.Errorf("FirstDetectionMs() = %d, want 10", got)
	}
	a, ok := b.Assertion("EA-sv")
	if !ok {
		t.Fatal("Assertion(EA-sv) missing")
	}
	if a.Detected() {
		t.Error("EA-sv fired spuriously")
	}
	if _, ok := b.Assertion("nope"); ok {
		t.Error("Assertion(nope) found")
	}
}

func TestBankResetAndCosts(t *testing.T) {
	bus := bankSystem(t)
	b, err := NewBank(bus, 10, bankSpecs())
	if err != nil {
		t.Fatal(err)
	}
	bus.Poke("sv", 9999)
	b.Hook(0)
	if !b.Detected() {
		t.Fatal("setup: nothing detected")
	}
	b.Reset()
	if b.Detected() {
		t.Error("Detected() true after Reset")
	}
	if got := b.FirstDetectionMs(); got != -1 {
		t.Errorf("FirstDetectionMs() = %d after Reset, want -1", got)
	}

	c := b.TotalCost()
	if c.ROMBytes != 50+25 || c.RAMBytes != 14+13 {
		t.Errorf("TotalCost() = %+v, want ROM 75 RAM 27", c)
	}
	sub, err := b.SubsetCost([]string{"EA-ctr"})
	if err != nil {
		t.Fatal(err)
	}
	if sub.ROMBytes != 25 || sub.RAMBytes != 13 {
		t.Errorf("SubsetCost() = %+v", sub)
	}
	if _, err := b.SubsetCost([]string{"nope"}); err == nil {
		t.Error("SubsetCost(unknown) = nil error")
	}
}

func TestBankNeverFiresOnQuietSystem(t *testing.T) {
	bus := bankSystem(t)
	b, err := NewBank(bus, 10, bankSpecs())
	if err != nil {
		t.Fatal(err)
	}
	bus.Poke("sv", 100)
	bus.Poke("ctr", 0)
	for now := int64(0); now < 1000; now += 10 {
		bus.Poke("sv", 100+(now/10)%3)
		bus.Poke("ctr", model.Word(now/10*5))
		b.Hook(now)
	}
	if b.Detected() {
		t.Errorf("false positives on nominal trajectories: %v", b.DetectedBy())
	}
}

func TestWriteBankChecksEveryWrite(t *testing.T) {
	bus := bankSystem(t)
	wb, err := NewWriteBank(bus, []Spec{
		{Name: "W-ctr", Signal: "ctr", Kind: KindCounter, MinStep: 0, MaxStep: 10, WrapWidth: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	bus.OnWrite(wb.WriteHook())

	sys := bus.System()
	m, _ := sys.Module("M")
	ex := model.NewExec(bus, m, 0)

	ex.Out(2, 0)
	wb.Hook(5)
	ex.Out(2, 8) // plausible step
	if wb.Detected() {
		t.Fatal("plausible write fired")
	}
	ex.Out(2, 100) // implausible jump, mid-period: a sampler would miss it if corrected
	if !wb.Detected() {
		t.Fatal("implausible write not caught")
	}
	a, ok := wb.Assertion("ctr")
	if !ok {
		t.Fatal("assertion lookup failed")
	}
	if got := a.FirstDetectionMs(); got != 5 {
		t.Errorf("FirstDetectionMs = %d, want 5 (clock from Hook)", got)
	}
	wb.Reset()
	if wb.Detected() {
		t.Error("Detected after Reset")
	}
}

func TestWriteBankErrors(t *testing.T) {
	bus := bankSystem(t)
	if _, err := NewWriteBank(bus, []Spec{{Name: "x", Signal: "ghost", Kind: KindBool}}); err == nil {
		t.Error("unknown signal accepted")
	}
	if _, err := NewWriteBank(bus, []Spec{
		{Name: "a", Signal: "sv", Kind: KindBool},
		{Name: "b", Signal: "sv", Kind: KindBool},
	}); err == nil {
		t.Error("duplicate signal accepted")
	}
	if _, err := NewWriteBank(bus, []Spec{{Name: "a", Signal: "sv", Kind: Kind(99)}}); err == nil {
		t.Error("invalid spec accepted")
	}
	wb, err := NewWriteBank(bus, []Spec{{Name: "a", Signal: "sv", Kind: KindBool}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(wb.Assertions()); got != 1 {
		t.Errorf("Assertions() = %d", got)
	}
}

// FirstDetectionMs returns the earliest detection time across the bank,
// or -1 if nothing fired.
func (b *Bank) FirstDetectionMs() int64 {
	first := int64(-1)
	for _, a := range b.asserts {
		if t := a.FirstDetectionMs(); t >= 0 && (first < 0 || t < first) {
			first = t
		}
	}
	return first
}

// Assertion returns the assertion guarding the signal.
func (b *WriteBank) Assertion(sig model.SignalID) (*Assertion, bool) {
	a, ok := b.asserts[sig]
	return a, ok
}

// Detected reports whether any assertion fired this run.
func (b *WriteBank) Detected() bool {
	for _, a := range b.order {
		if a.Detected() {
			return true
		}
	}
	return false
}
