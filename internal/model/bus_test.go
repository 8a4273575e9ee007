package model

import (
	"testing"
	"testing/quick"
)

func TestBusResetAndInitialValues(t *testing.T) {
	sys, err := NewBuilder("init").
		AddSignal("in", Uint(16), AsSystemInput(), WithInitial(42)).
		AddSignal("out", Uint(8), AsSystemOutput(1), WithInitial(7)).
		AddModule("M", In("in"), Out("out")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	bus := NewBus(sys)
	if got := bus.Peek("in"); got != 42 {
		t.Errorf("Peek(in) = %d, want 42", got)
	}
	if got := bus.Peek("out"); got != 7 {
		t.Errorf("Peek(out) = %d, want 7", got)
	}
	bus.Poke("in", 99)
	bus.Reset()
	if got := bus.Peek("in"); got != 42 {
		t.Errorf("after Reset, Peek(in) = %d, want 42", got)
	}
}

func TestBusPokeMasksToWidth(t *testing.T) {
	sys := tinySystem(t)
	bus := NewBus(sys)
	bus.Poke("out", 0x1FF) // out is uint8
	if got := bus.Peek("out"); got != 0xFF {
		t.Errorf("Peek(out) = %#x, want 0xFF (masked to 8 bits)", got)
	}
	bus.PokeRaw("mid", 0x12345)
	if got := bus.PeekRaw("mid"); got != 0x2345 {
		t.Errorf("PeekRaw(mid) = %#x, want 0x2345 (masked to 16 bits)", got)
	}
}

func TestExecPortIO(t *testing.T) {
	sys := tinySystem(t)
	bus := NewBus(sys)
	bus.Poke("in", 1000)

	a, _ := sys.Module("A")
	ex := NewExec(bus, a, 5)
	if got := ex.NowMs(); got != 5 {
		t.Errorf("NowMs() = %d, want 5", got)
	}
	if got := ex.In(1); got != 1000 {
		t.Errorf("In(1) = %d, want 1000", got)
	}
	ex.Out(1, 123)
	ex.OutBool(2, true)
	if got := bus.Peek("mid"); got != 123 {
		t.Errorf("Peek(mid) = %d, want 123", got)
	}
	if got := bus.Peek("flag"); got != 1 {
		t.Errorf("Peek(flag) = %d, want 1", got)
	}

	b, _ := sys.Module("B")
	exB := NewExec(bus, b, 6)
	if !exB.InBool(2) {
		t.Error("InBool(2) = false, want true")
	}
}

func TestExecPanicsOnUnboundPort(t *testing.T) {
	sys := tinySystem(t)
	bus := NewBus(sys)
	a, _ := sys.Module("A")
	ex := NewExec(bus, a, 0)

	assertPanics(t, "In(2)", func() { ex.In(2) })
	assertPanics(t, "Out(3, 0)", func() { ex.Out(3, 0) })
}

func TestBusPanicsOnUnknownSignal(t *testing.T) {
	sys := tinySystem(t)
	bus := NewBus(sys)
	assertPanics(t, "Peek", func() { bus.Peek("nope") })
	assertPanics(t, "PeekRaw", func() { bus.PeekRaw("nope") })
	assertPanics(t, "Poke", func() { bus.Poke("nope", 1) })
	assertPanics(t, "PokeRaw", func() { bus.PokeRaw("nope", 1) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestReadHooksInterceptOnlyPortReads(t *testing.T) {
	sys := tinySystem(t)
	bus := NewBus(sys)
	bus.Poke("in", 100)

	var hookCalls int
	bus.OnRead(func(port PortRef, sig SignalID, raw Word) Word {
		hookCalls++
		if sig == "in" {
			return raw ^ 0x1 // flip bit 0 as the injector would
		}
		return raw
	})

	// Peek must not trigger hooks.
	if got := bus.Peek("in"); got != 100 {
		t.Errorf("Peek(in) = %d, want 100 (hooks must not apply)", got)
	}
	if hookCalls != 0 {
		t.Errorf("Peek triggered %d hook calls, want 0", hookCalls)
	}

	a, _ := sys.Module("A")
	ex := NewExec(bus, a, 0)
	if got := ex.In(1); got != 101 {
		t.Errorf("hooked In(1) = %d, want 101", got)
	}
	if hookCalls != 1 {
		t.Errorf("hook calls = %d, want 1", hookCalls)
	}
	// The stored value must be untouched (transient error semantics).
	if got := bus.Peek("in"); got != 100 {
		t.Errorf("stored value changed to %d after hooked read, want 100", got)
	}
}

func TestReadHooksChainInOrder(t *testing.T) {
	sys := tinySystem(t)
	bus := NewBus(sys)
	bus.Poke("in", 0)
	bus.OnRead(func(_ PortRef, _ SignalID, raw Word) Word { return raw + 1 })
	bus.OnRead(func(_ PortRef, _ SignalID, raw Word) Word { return raw * 10 })
	a, _ := sys.Module("A")
	if got := NewExec(bus, a, 0).In(1); got != 10 {
		t.Errorf("chained hooks In(1) = %d, want 10 ((0+1)*10)", got)
	}
}

func TestWriteHookSeesOldAndNew(t *testing.T) {
	sys := tinySystem(t)
	bus := NewBus(sys)
	bus.Poke("mid", 5)

	var gotOld, gotNew Word
	var gotPort PortRef
	bus.OnWrite(func(port PortRef, sig SignalID, oldRaw, newRaw Word) {
		if sig == "mid" {
			gotPort, gotOld, gotNew = port, oldRaw, newRaw
		}
	})
	a, _ := sys.Module("A")
	NewExec(bus, a, 0).Out(1, 9)
	if gotOld != 5 || gotNew != 9 {
		t.Errorf("write hook old/new = %d/%d, want 5/9", gotOld, gotNew)
	}
	if gotPort.Module != "A" || gotPort.Dir != DirOut || gotPort.Index != 1 {
		t.Errorf("write hook port = %+v, want A.out[1]", gotPort)
	}
}

func TestClearHooks(t *testing.T) {
	sys := tinySystem(t)
	bus := NewBus(sys)
	called := false
	bus.OnRead(func(_ PortRef, _ SignalID, raw Word) Word { called = true; return raw })
	bus.OnWrite(func(_ PortRef, _ SignalID, _, _ Word) { called = true })
	bus.ClearHooks()
	a, _ := sys.Module("A")
	ex := NewExec(bus, a, 0)
	ex.In(1)
	ex.Out(1, 1)
	if called {
		t.Error("hooks ran after ClearHooks")
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	sys := tinySystem(t)
	bus := NewBus(sys)
	bus.Poke("mid", 77)
	snap := bus.Snapshot()
	if snap["mid"] != 77 {
		t.Errorf("Snapshot[mid] = %d, want 77", snap["mid"])
	}
	snap["mid"] = 0
	if got := bus.Peek("mid"); got != 77 {
		t.Errorf("mutating snapshot changed bus value to %d", got)
	}
}

func TestSnapshotInto(t *testing.T) {
	sys := tinySystem(t)
	bus := NewBus(sys)
	bus.Poke("mid", 77)

	snap := bus.SnapshotInto(nil)
	if len(snap) != sys.NumSignals() {
		t.Fatalf("SnapshotInto returned %d values, want %d", len(snap), sys.NumSignals())
	}
	i, ok := sys.SignalIndex("mid")
	if !ok {
		t.Fatal("mid has no dense index")
	}
	if snap[i] != 77 {
		t.Errorf("snap[%d] = %d, want 77", i, snap[i])
	}

	// A big-enough buffer is reused in place, without reallocating.
	big := make([]Word, 0, sys.NumSignals()+4)
	bus.Poke("mid", 88)
	reused := bus.SnapshotInto(big)
	if &reused[0] != &big[:1][0] {
		t.Error("SnapshotInto reallocated despite sufficient capacity")
	}
	if reused[i] != 88 {
		t.Errorf("reused[%d] = %d, want 88", i, reused[i])
	}

	// Mutating the snapshot must not reach the bus.
	reused[i] = 0
	if got := bus.Peek("mid"); got != 88 {
		t.Errorf("mutating snapshot changed bus value to %d", got)
	}
}

// Property: Poke then Peek round-trips any value through the declared
// width for unsigned signals.
func TestQuickBusPokePeekRoundTrip(t *testing.T) {
	sys := tinySystem(t)
	bus := NewBus(sys)
	mid, _ := sys.Signal("mid")
	f := func(v Word) bool {
		bus.Poke("mid", v)
		return bus.Peek("mid") == mid.Type.FromRaw(mid.Type.ToRaw(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriteFilterSubstitutesValue(t *testing.T) {
	sys := tinySystem(t)
	bus := NewBus(sys)
	bus.Poke("mid", 100)

	var sawOld, sawProposed Word
	bus.OnWriteFilter(func(port PortRef, sig SignalID, old, proposed Word) Word {
		if sig != "mid" {
			return proposed
		}
		sawOld, sawProposed = old, proposed
		if proposed > 200 {
			return old // hold last good value
		}
		return proposed
	})

	a, _ := sys.Module("A")
	ex := NewExec(bus, a, 0)
	ex.Out(1, 150)
	if got := bus.Peek("mid"); got != 150 {
		t.Errorf("plausible write filtered: %d", got)
	}
	ex.Out(1, 5000)
	if got := bus.Peek("mid"); got != 150 {
		t.Errorf("implausible write stored: %d, want held 150", got)
	}
	if sawOld != 150 || sawProposed != 5000 {
		t.Errorf("filter saw old/proposed = %d/%d", sawOld, sawProposed)
	}
}

func TestWriteFiltersChainAndHooksSeeFinal(t *testing.T) {
	sys := tinySystem(t)
	bus := NewBus(sys)
	bus.OnWriteFilter(func(_ PortRef, _ SignalID, _, proposed Word) Word { return proposed + 1 })
	bus.OnWriteFilter(func(_ PortRef, _ SignalID, _, proposed Word) Word { return proposed * 2 })
	var hookSaw Word
	bus.OnWrite(func(_ PortRef, sig SignalID, _, newRaw Word) {
		if sig == "mid" {
			hookSaw = newRaw
		}
	})
	a, _ := sys.Module("A")
	NewExec(bus, a, 0).Out(1, 10)
	if got := bus.Peek("mid"); got != 22 {
		t.Errorf("chained filters produced %d, want (10+1)*2", got)
	}
	if hookSaw != 22 {
		t.Errorf("write hook saw %d, want final 22", hookSaw)
	}
}

func TestPokeBypassesWriteFilters(t *testing.T) {
	sys := tinySystem(t)
	bus := NewBus(sys)
	bus.OnWriteFilter(func(_ PortRef, _ SignalID, _, _ Word) Word { return 0 })
	bus.Poke("mid", 77)
	if got := bus.Peek("mid"); got != 77 {
		t.Errorf("Poke filtered: %d", got)
	}
}

// Snapshot copies the raw value of every signal, keyed by signal ID.
func (b *Bus) Snapshot() map[SignalID]Word {
	out := make(map[SignalID]Word, len(b.values))
	for i, id := range b.sys.sigOrder {
		out[id] = b.values[i]
	}
	return out
}
