package sched

import (
	"strings"
	"testing"

	"repro/internal/model"
)

// counter is a trivial Runnable that counts invocations and copies its
// input to its output, scaled.
type counter struct {
	id    model.ModuleID
	steps int
	times []int64
}

func (c *counter) ModuleID() model.ModuleID { return c.id }
func (c *counter) Reset()                   { c.steps = 0; c.times = nil }
func (c *counter) Step(e *model.Exec) {
	c.steps++
	c.times = append(c.times, e.NowMs())
	if len(e.Module().Inputs) > 0 && len(e.Module().Outputs) > 0 {
		e.Out(1, e.In(1)+1)
	}
}

func testSystem(t *testing.T) *model.System {
	t.Helper()
	sys, err := model.NewBuilder("schedtest").
		AddSignal("in", model.Uint(16), model.AsSystemInput()).
		AddSignal("mid", model.Uint(16)).
		AddSignal("slotsel", model.Uint(8)).
		AddSignal("out", model.Uint(16), model.AsSystemOutput(1)).
		AddModule("CLK", model.In("in"), model.Out("slotsel")).
		AddModule("A", model.In("in"), model.Out("mid")).
		AddModule("B", model.In("mid"), model.Out("out")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func newSched(t *testing.T, bus *model.Bus, table Table, mods ...model.Runnable) *Scheduler {
	t.Helper()
	s, err := New(bus, table)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mods {
		if err := s.Register(m); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestTableValidate(t *testing.T) {
	sys := testSystem(t)
	tests := []struct {
		name    string
		table   Table
		wantSub string
	}{
		{"zero slot length", Table{SlotMs: 0, Slots: [][]model.ModuleID{{}}}, "SlotMs"},
		{"no slots", Table{SlotMs: 1}, "no slots"},
		{"unknown module in Every", Table{SlotMs: 1, Every: []model.ModuleID{"X"}, Slots: [][]model.ModuleID{{}}}, "unknown module"},
		{"unknown module in slot", Table{SlotMs: 1, Slots: [][]model.ModuleID{{"X"}}}, "unknown module"},
		{"unknown selector", Table{SlotMs: 1, Slots: [][]model.ModuleID{{}}, Selector: "nope"}, "selector"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.table.Validate(sys)
			if err == nil {
				t.Fatal("Validate() = nil, want error")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error %q missing %q", err, tt.wantSub)
			}
		})
	}
}

func TestRoundRobinInvocation(t *testing.T) {
	sys := testSystem(t)
	bus := model.NewBus(sys)
	a := &counter{id: "A"}
	b := &counter{id: "B"}
	table := Table{
		SlotMs: 1,
		Slots:  [][]model.ModuleID{{"A"}, {"B"}, {}},
	}
	s := newSched(t, bus, table, a, b)

	if err := s.RunFor(9); err != nil {
		t.Fatal(err)
	}
	if a.steps != 3 || b.steps != 3 {
		t.Errorf("steps A=%d B=%d, want 3 each over 9 slots of a 3-slot cycle", a.steps, b.steps)
	}
	if got := s.NowMs(); got != 9 {
		t.Errorf("NowMs() = %d, want 9", got)
	}
	// A runs in slot 0 of each cycle: times 0, 3, 6.
	want := []int64{0, 3, 6}
	for i, ts := range a.times {
		if ts != want[i] {
			t.Errorf("A invocation %d at %d ms, want %d", i, ts, want[i])
		}
	}
	if got := s.Invocations("A"); got != 3 {
		t.Errorf("Invocations(A) = %d, want 3", got)
	}
}

func TestEveryModulesRunEachSlot(t *testing.T) {
	sys := testSystem(t)
	bus := model.NewBus(sys)
	clk := &counter{id: "CLK"}
	a := &counter{id: "A"}
	table := Table{
		SlotMs: 2,
		Every:  []model.ModuleID{"CLK"},
		Slots:  [][]model.ModuleID{{"A"}, {}},
	}
	s := newSched(t, bus, table, clk, a)
	if err := s.RunFor(8); err != nil { // 4 slots
		t.Fatal(err)
	}
	if clk.steps != 4 {
		t.Errorf("CLK steps = %d, want 4 (every slot)", clk.steps)
	}
	if a.steps != 2 {
		t.Errorf("A steps = %d, want 2", a.steps)
	}
}

func TestSelectorDrivenSlotChoice(t *testing.T) {
	sys := testSystem(t)
	bus := model.NewBus(sys)
	a := &counter{id: "A"}
	b := &counter{id: "B"}
	table := Table{
		SlotMs:   1,
		Slots:    [][]model.ModuleID{{"A"}, {"B"}},
		Selector: "slotsel",
	}
	s := newSched(t, bus, table, a, b)

	// Selector stuck at 1: only B must ever run.
	bus.Poke("slotsel", 1)
	if err := s.RunFor(4); err != nil {
		t.Fatal(err)
	}
	if a.steps != 0 || b.steps != 4 {
		t.Errorf("steps A=%d B=%d, want 0/4 with selector stuck at 1", a.steps, b.steps)
	}

	// Out-of-range selector values must wrap via modulo.
	bus.Poke("slotsel", 6) // 6 % 2 == 0 -> slot 0 -> A
	if err := s.RunSlot(); err != nil {
		t.Fatal(err)
	}
	if a.steps != 1 {
		t.Errorf("A steps = %d, want 1 after selector 6 (mod 2 = 0)", a.steps)
	}
}

// TestSignedSelectorWraps pins the selector's modulo for negative and
// out-of-range values of a signed selector, next to the in-range fast
// path: the slot is the selector value modulo the table length, taken
// non-negative.
func TestSignedSelectorWraps(t *testing.T) {
	sys, err := model.NewBuilder("signedsel").
		AddSignal("in", model.Uint(16), model.AsSystemInput()).
		AddSignal("sel", model.Int(8)).
		AddSignal("mid", model.Uint(16)).
		AddSignal("out", model.Uint(16), model.AsSystemOutput(1)).
		AddSignal("out2", model.Uint(16), model.AsSystemOutput(1)).
		AddModule("CLK", model.In("in"), model.Out("sel")).
		AddModule("A", model.In("in"), model.Out("mid")).
		AddModule("B", model.In("mid"), model.Out("out")).
		AddModule("C", model.In("mid"), model.Out("out2")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	bus := model.NewBus(sys)
	mods := []*counter{{id: "A"}, {id: "B"}, {id: "C"}}
	s := newSched(t, bus, Table{
		SlotMs:   1,
		Slots:    [][]model.ModuleID{{"A"}, {"B"}, {"C"}},
		Selector: "sel",
	}, mods[0], mods[1], mods[2])
	for _, tc := range []struct {
		sel  model.Word
		want int
	}{{0, 0}, {1, 1}, {2, 2}, {3, 0}, {127, 1}, {-1, 2}, {-3, 0}, {-128, 1}} {
		before := make([]int, len(mods))
		for i, m := range mods {
			before[i] = m.steps
		}
		bus.Poke("sel", tc.sel)
		if err := s.RunSlot(); err != nil {
			t.Fatal(err)
		}
		for i, m := range mods {
			want := 0
			if i == tc.want {
				want = 1
			}
			if ran := m.steps - before[i]; ran != want {
				t.Errorf("selector %d: module %s ran %d times, want %d", tc.sel, m.id, ran, want)
			}
		}
	}
}

func TestHookOrderingAndTimes(t *testing.T) {
	sys := testSystem(t)
	bus := model.NewBus(sys)
	a := &counter{id: "A"}
	table := Table{SlotMs: 1, Slots: [][]model.ModuleID{{"A"}}}
	s := newSched(t, bus, table, a)

	var order []string
	s.OnPreSlot(func(now int64) { order = append(order, "pre") })
	s.OnPostSlot(func(now int64) { order = append(order, "post") })
	if err := s.RunSlot(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "pre" || order[1] != "post" {
		t.Errorf("hook order = %v, want [pre post]", order)
	}
}

func TestPreHookDrivesInputBeforeModules(t *testing.T) {
	sys := testSystem(t)
	bus := model.NewBus(sys)
	a := &counter{id: "A"}
	table := Table{SlotMs: 1, Slots: [][]model.ModuleID{{"A"}}}
	s := newSched(t, bus, table, a)
	s.OnPreSlot(func(now int64) { bus.Poke("in", model.Word(now+100)) })
	if err := s.RunFor(3); err != nil {
		t.Fatal(err)
	}
	// A copies in+1 to mid; the last slot ran at t=2 with in=102.
	if got := bus.Peek("mid"); got != 103 {
		t.Errorf("mid = %d, want 103", got)
	}
}

func TestUnregisteredScheduledModuleFails(t *testing.T) {
	sys := testSystem(t)
	bus := model.NewBus(sys)
	table := Table{SlotMs: 1, Slots: [][]model.ModuleID{{"A"}}}
	s := newSched(t, bus, table)
	if err := s.RunSlot(); err == nil {
		t.Fatal("RunSlot with unregistered module returned nil error")
	}
}

func TestRegisterErrors(t *testing.T) {
	sys := testSystem(t)
	bus := model.NewBus(sys)
	table := Table{SlotMs: 1, Slots: [][]model.ModuleID{{}}}
	s := newSched(t, bus, table)
	if err := s.Register(&counter{id: "ghost"}); err == nil {
		t.Error("Register(unknown module) = nil error")
	}
	if err := s.Register(&counter{id: "A"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(&counter{id: "A"}); err == nil {
		t.Error("duplicate Register = nil error")
	}
}

func TestRunUntil(t *testing.T) {
	sys := testSystem(t)
	bus := model.NewBus(sys)
	a := &counter{id: "A"}
	table := Table{SlotMs: 1, Slots: [][]model.ModuleID{{"A"}}}
	s := newSched(t, bus, table, a)

	done, err := s.RunUntil(func() bool { return a.steps >= 5 }, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("RunUntil reported timeout, want condition hit")
	}
	if a.steps != 5 {
		t.Errorf("steps = %d, want exactly 5 (checked after each slot)", a.steps)
	}

	done, err = s.RunUntil(func() bool { return false }, 10)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Error("RunUntil reported done, want timeout")
	}
}

func TestResetRewindsEverything(t *testing.T) {
	sys := testSystem(t)
	bus := model.NewBus(sys)
	a := &counter{id: "A"}
	table := Table{SlotMs: 1, Slots: [][]model.ModuleID{{"A"}}}
	s := newSched(t, bus, table, a)
	bus.Poke("in", 50)
	if err := s.RunFor(3); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if got := s.NowMs(); got != 0 {
		t.Errorf("NowMs() after Reset = %d, want 0", got)
	}
	if a.steps != 0 {
		t.Errorf("module steps after Reset = %d, want 0", a.steps)
	}
	if got := bus.Peek("in"); got != 0 {
		t.Errorf("bus value after Reset = %d, want initial 0", got)
	}
	if got := s.Invocations("A"); got != 0 {
		t.Errorf("Invocations after Reset = %d, want 0", got)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []model.Word {
		sys := testSystem(t)
		bus := model.NewBus(sys)
		a := &counter{id: "A"}
		b := &counter{id: "B"}
		table := Table{SlotMs: 1, Slots: [][]model.ModuleID{{"A"}, {"B"}}}
		s := newSched(t, bus, table, a, b)
		s.OnPreSlot(func(now int64) { bus.Poke("in", model.Word(now*3%17)) })
		var outs []model.Word
		s.OnPostSlot(func(now int64) { outs = append(outs, bus.Peek("out")) })
		if err := s.RunFor(50); err != nil {
			t.Fatal(err)
		}
		return outs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at slot %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Invocations returns how many times the module has been stepped.
func (s *Scheduler) Invocations(id model.ModuleID) int64 {
	if n := s.invoked[id]; n != nil {
		return *n
	}
	return 0
}
