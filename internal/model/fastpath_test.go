package model

import (
	"fmt"
	"strings"
	"testing"
)

// TestExecFastPathMatchesHooked runs the same port reads and writes over
// the codec width table on a hook-free bus and on buses with a no-op
// read hook, write hook or write filter installed: every stored word and
// every decoded read agrees.
func TestExecFastPathMatchesHooked(t *testing.T) {
	types := codecTypes()
	b := NewBuilder("fast")
	var ins, outs []SignalID
	for k, ty := range types {
		in, out := SignalID(fmt.Sprintf("in%d", k)), SignalID(fmt.Sprintf("out%d", k))
		b.AddSignal(in, ty, AsSystemInput()).AddSignal(out, ty, AsSystemOutput(1))
		ins, outs = append(ins, in), append(outs, out)
	}
	sys, err := b.AddModule("R", In(ins...), Out(outs...)).Build()
	if err != nil {
		t.Fatal(err)
	}
	r, _ := sys.Module("R")
	setups := map[string]func(*Bus){
		"read hook":    func(b *Bus) { b.OnRead(func(_ PortRef, _ SignalID, raw Word) Word { return raw }) },
		"write hook":   func(b *Bus) { b.OnWrite(func(PortRef, SignalID, Word, Word) {}) },
		"write filter": func(b *Bus) { b.OnWriteFilter(func(_ PortRef, _ SignalID, _, v Word) Word { return v }) },
	}
	plain := NewBus(sys)
	plainEx := NewExec(plain, r, 0)
	for name, setup := range setups {
		hooked := NewBus(sys)
		setup(hooked)
		hookedEx := NewExec(hooked, r, 0)
		for k, ty := range types {
			for _, v := range codecValues(ty.Width) {
				plain.Poke(ins[k], v)
				hooked.Poke(ins[k], v)
				if got, want := hookedEx.In(k+1), plainEx.In(k+1); got != want || want != refFromRaw(ty, v) {
					t.Fatalf("%s, %s: In of %#x = %d hooked, %d plain, want %d", name, ty, v, got, want, refFromRaw(ty, v))
				}
				plainEx.Out(k+1, v)
				hookedEx.Out(k+1, v)
				if got, want := hooked.PeekRaw(outs[k]), plain.PeekRaw(outs[k]); got != want || want != ty.ToRaw(v) {
					t.Fatalf("%s, %s: Out(%#x) stored %#x hooked, %#x plain, want %#x", name, ty, v, got, want, ty.ToRaw(v))
				}
			}
		}
	}
}

// TestRemoveReadKeepsOthersInOrder removes one read hook out of three:
// the other two keep running in installation order, and removing again,
// or after ClearHooks, does nothing.
func TestRemoveReadKeepsOthersInOrder(t *testing.T) {
	sys := tinySystem(t)
	bus := NewBus(sys)
	a, _ := sys.Module("A")
	ex := NewExec(bus, a, 0)
	var calls []string
	hook := func(name string) ReadHook {
		return func(_ PortRef, _ SignalID, raw Word) Word {
			calls = append(calls, name)
			return raw*10 + Word(len(calls))
		}
	}
	bus.OnRead(hook("first"))
	mid := bus.OnRead(hook("mid"))
	bus.OnRead(hook("last"))
	bus.RemoveRead(mid)
	bus.RemoveRead(mid)
	if got := ex.In(1); got != 12 || strings.Join(calls, " ") != "first last" {
		t.Errorf("In(1) = %d after removing the middle hook, calls %q; want 12 from first then last", got, calls)
	}
	bus.ClearHooks()
	again := bus.OnRead(hook("again"))
	bus.RemoveRead(mid)
	calls = nil
	if got := ex.In(1); got != 1 || strings.Join(calls, " ") != "again" {
		t.Errorf("In(1) = %d, calls %q after a stale remove; want the new hook to run", got, calls)
	}
	bus.RemoveRead(again)
	calls = nil
	if got := ex.In(1); got != 0 || len(calls) != 0 {
		t.Errorf("In(1) = %d, calls %q with every hook removed", got, calls)
	}
}
