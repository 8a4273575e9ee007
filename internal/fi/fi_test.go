package fi

import (
	"strings"
	"testing"

	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/sched"
)

func fiSystem(t *testing.T) (*model.System, *model.Bus) {
	t.Helper()
	sys, err := model.NewBuilder("fi").
		AddSignal("in", model.Uint(16), model.AsSystemInput()).
		AddSignal("mid", model.Uint(16)).
		AddSignal("out", model.Uint(8), model.AsSystemOutput(1)).
		AddModule("A", model.In("in"), model.Out("mid")).
		AddModule("B", model.In("mid"), model.Out("out")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys, model.NewBus(sys)
}

func TestInjectorOneShotReadFlip(t *testing.T) {
	sys, bus := fiSystem(t)
	bus.Poke("in", 0b1000)

	flip := &ReadFlip{
		Port:   model.PortRef{Module: "A", Dir: model.DirIn, Index: 1},
		Bit:    1,
		FromMs: 20,
	}
	inj := NewInjector(flip)
	bus.OnRead(inj.ReadHook())

	a, _ := sys.Module("A")
	read := func(now int64) model.Word {
		inj.Hook(now)
		return model.NewExec(bus, a, now).In(1)
	}

	if got := read(0); got != 0b1000 {
		t.Errorf("read before FromMs = %#b, corrupted too early", got)
	}
	if !flip.Armed() {
		t.Error("flip consumed before FromMs")
	}
	if got := read(20); got != 0b1010 {
		t.Errorf("read at FromMs = %#b, want bit 1 flipped", got)
	}
	if applied, at := flip.Applied(); !applied || at != 20 {
		t.Errorf("Applied() = %v,%d want true,20", applied, at)
	}
	if got := read(30); got != 0b1000 {
		t.Errorf("read after one-shot = %#b, want pristine", got)
	}
	if got := bus.Peek("in"); got != 0b1000 {
		t.Errorf("stored value corrupted: %#b", got)
	}
}

func TestInjectorIgnoresOtherPorts(t *testing.T) {
	sys, bus := fiSystem(t)
	bus.Poke("mid", 4)
	flip := &ReadFlip{
		Port: model.PortRef{Module: "A", Dir: model.DirIn, Index: 1},
		Bit:  0,
	}
	inj := NewInjector(flip)
	bus.OnRead(inj.ReadHook())
	inj.Hook(0)

	b, _ := sys.Module("B")
	if got := model.NewExec(bus, b, 0).In(1); got != 4 {
		t.Errorf("B's read corrupted: %d", got)
	}
	if !flip.Armed() {
		t.Error("flip consumed by non-target port")
	}
}

func TestPeriodicInjectorRAMCell(t *testing.T) {
	_, bus := fiSystem(t)
	var mem memmap.Map
	v := mem.AllocRAM("M", "x", model.Uint(8), 0)

	pi, err := NewPeriodicInjector(MemTarget{Kind: TargetRAMCell, Cell: v.ID(), Bit: 2}, 20, 0, bus, &mem)
	if err != nil {
		t.Fatal(err)
	}
	pi.Hook(0)
	if got := v.Get(); got != 4 {
		t.Errorf("after first tick = %d, want 4", got)
	}
	pi.Hook(10) // before next period: no flip
	if got := v.Get(); got != 4 {
		t.Errorf("flipped off-period: %d", got)
	}
	pi.Hook(20) // second tick re-flips (XOR)
	if got := v.Get(); got != 0 {
		t.Errorf("after second tick = %d, want 0 (re-flip)", got)
	}
	if got, _ := pi.Applied(); got != 2 {
		t.Errorf("Applied() = %d, want 2", got)
	}
}

func TestPeriodicInjectorBusSignal(t *testing.T) {
	_, bus := fiSystem(t)
	var mem memmap.Map
	bus.Poke("mid", 0)
	pi, err := NewPeriodicInjector(MemTarget{Kind: TargetBusSignal, Signal: "mid", Bit: 7}, 20, 40, bus, &mem)
	if err != nil {
		t.Fatal(err)
	}
	pi.Hook(0)
	if got := bus.Peek("mid"); got != 0 {
		t.Errorf("flip before FromMs: %d", got)
	}
	pi.Hook(40)
	if got := bus.Peek("mid"); got != 128 {
		t.Errorf("after tick = %d, want 128", got)
	}
}

func TestPeriodicInjectorStackCellTransient(t *testing.T) {
	_, bus := fiSystem(t)
	var mem memmap.Map
	v := mem.AllocStack("M", "tmp", model.Uint(8))
	v.Set(1)

	pi, err := NewPeriodicInjector(MemTarget{Kind: TargetStackCell, Cell: v.ID(), Bit: 1}, 20, 0, bus, &mem)
	if err != nil {
		t.Fatal(err)
	}
	mem.OnRead(pi.MemHook())

	pi.Hook(0) // arm
	if got := v.Get(); got != 3 {
		t.Errorf("first read after arm = %d, want 3 (transient flip)", got)
	}
	if got := v.Get(); got != 1 {
		t.Errorf("second read = %d, want 1 (consumed)", got)
	}
	if got := mem.Peek(v.ID()); got != 1 {
		t.Errorf("stored stack value corrupted: %d", got)
	}
}

func TestNewPeriodicInjectorValidation(t *testing.T) {
	_, bus := fiSystem(t)
	var mem memmap.Map
	v := mem.AllocRAM("M", "x", model.Uint(8), 0)

	tests := []struct {
		name    string
		target  MemTarget
		period  int64
		wantSub string
	}{
		{"zero period", MemTarget{Kind: TargetRAMCell, Cell: v.ID(), Bit: 0}, 0, "period"},
		{"bit beyond cell width", MemTarget{Kind: TargetRAMCell, Cell: v.ID(), Bit: 8}, 20, "width"},
		{"unknown signal", MemTarget{Kind: TargetBusSignal, Signal: "ghost", Bit: 0}, 20, "unknown signal"},
		{"bit beyond signal width", MemTarget{Kind: TargetBusSignal, Signal: "out", Bit: 8}, 20, "width"},
		{"bad kind", MemTarget{Kind: TargetKind(9)}, 20, "kind"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewPeriodicInjector(tt.target, tt.period, 0, bus, &mem)
			if err == nil {
				t.Fatal("NewPeriodicInjector = nil error")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error %q missing %q", err, tt.wantSub)
			}
		})
	}
}

func TestEnumerateTargets(t *testing.T) {
	sys, _ := fiSystem(t)
	var mem memmap.Map
	mem.AllocRAM("A", "state", model.Uint(8), 0) // 8 bits
	mem.AllocStack("A", "tmp", model.Uint(16))   // 16 bits
	mem.AllocRAM("B", "ctr", model.Uint(4), 0)   // 4 bits

	ram := EnumerateRAMTargets(sys, &mem)
	// 8 + 4 cell bits, plus signals mid (16) and out (8); "in" excluded
	// as a system input.
	if got, want := len(ram), 8+4+16+8; got != want {
		t.Errorf("RAM targets = %d, want %d", got, want)
	}
	for _, tgt := range ram {
		if tgt.Kind == TargetBusSignal && tgt.Signal == "in" {
			t.Error("system input enumerated as RAM target")
		}
		if tgt.Kind == TargetStackCell {
			t.Error("stack cell in RAM enumeration")
		}
	}

	stack := EnumerateStackTargets(&mem)
	if got := len(stack); got != 16 {
		t.Errorf("stack targets = %d, want 16", got)
	}
}

func TestSampleTargetsDeterministicAndDistinct(t *testing.T) {
	sys, _ := fiSystem(t)
	var mem memmap.Map
	mem.AllocRAM("A", "s", model.Uint(16), 0)
	all := EnumerateRAMTargets(sys, &mem)

	a := SampleTargets(all, 10, 42)
	b := SampleTargets(all, 10, 42)
	if len(a) != 10 {
		t.Fatalf("sampled %d, want 10", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed samples differ")
		}
	}
	seen := map[MemTarget]bool{}
	for _, tgt := range a {
		if seen[tgt] {
			t.Errorf("duplicate target %+v", tgt)
		}
		seen[tgt] = true
	}

	full := SampleTargets(all, len(all)+5, 1)
	if len(full) != len(all) {
		t.Errorf("oversampling returned %d, want all %d", len(full), len(all))
	}
	// Must not alias the input.
	full[0].Bit = 99
	if all[0].Bit == 99 {
		t.Error("SampleTargets aliases its input")
	}
}

func TestTargetDescribe(t *testing.T) {
	var mem memmap.Map
	v := mem.AllocRAM("CALC", "i", model.Uint(8), 0)
	d := MemTarget{Kind: TargetRAMCell, Cell: v.ID(), Bit: 3}.Describe(&mem)
	if !strings.Contains(d, "CALC.i") || !strings.Contains(d, "bit3") {
		t.Errorf("Describe() = %q", d)
	}
	ds := MemTarget{Kind: TargetBusSignal, Signal: "mid", Bit: 0}.Describe(&mem)
	if !strings.Contains(ds, "mid") {
		t.Errorf("Describe() = %q", ds)
	}
}

// passThrough copies its input port 1 to its output port 1 and records
// every value it read.
type passThrough struct {
	id   model.ModuleID
	seen []model.Word
}

func (p *passThrough) ModuleID() model.ModuleID { return p.id }
func (p *passThrough) Reset()                   { p.seen = nil }
func (p *passThrough) Step(e *model.Exec) {
	v := e.In(1)
	p.seen = append(p.seen, v)
	e.Out(1, v)
}

// TestInjectorRemovesItsSpentReadHook attaches a read flip between two
// other bus read hooks and runs the scheduler: the flip lands exactly
// once, the other hooks run in installation order on every port read
// before and after it, and once spent the injector's own hook is gone
// (re-arming the flip by hand corrupts nothing).
func TestInjectorRemovesItsSpentReadHook(t *testing.T) {
	_, bus := fiSystem(t)
	bus.Poke("in", 0b100)
	s, err := sched.New(bus, sched.Table{SlotMs: 1, Slots: [][]model.ModuleID{{"A", "B"}}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := &passThrough{id: "A"}, &passThrough{id: "B"}
	for _, r := range []model.Runnable{a, b} {
		if err := s.Register(r); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	bus.OnRead(func(port model.PortRef, _ model.SignalID, raw model.Word) model.Word {
		order = append(order, "before:"+string(port.Module))
		return raw
	})
	flip := &ReadFlip{Port: model.PortRef{Module: "A", Dir: model.DirIn, Index: 1}, Bit: 0, FromMs: 5}
	inj := NewInjector(flip)
	inj.Attach(s, bus, nil)
	bus.OnRead(func(port model.PortRef, _ model.SignalID, raw model.Word) model.Word {
		order = append(order, "after:"+string(port.Module))
		return raw
	})
	if err := s.RunFor(10); err != nil {
		t.Fatal(err)
	}
	if n, at := inj.Applied(); n != 1 || at != 5 {
		t.Fatalf("Applied() = %d, %d; want 1, 5", n, at)
	}
	for k, v := range a.seen {
		want := model.Word(0b100)
		if k == 5 {
			want = 0b101
		}
		if v != want {
			t.Errorf("A read %#b at %d ms, want %#b", v, k, want)
		}
	}
	if want := strings.Repeat("before:A after:A before:B after:B ", 10); strings.Join(order, " ")+" " != want {
		t.Errorf("hook calls %q, want %q", order, want)
	}

	flip.applied, flip.FromMs = false, 0
	if err := s.RunFor(2); err != nil {
		t.Fatal(err)
	}
	for _, got := range a.seen[10:] {
		if got != 0b100 {
			t.Errorf("a re-armed flip corrupted a read (%#b): the spent hook is still installed", got)
		}
	}
	if n := strings.Count(strings.Join(order, " "), "before:A"); n != 12 {
		t.Errorf("the hook installed before the injector ran %d times over 12 slots", n)
	}
}

// Armed reports whether the flip is still pending.
func (f *ReadFlip) Armed() bool { return !f.applied }
