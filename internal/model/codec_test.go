package model

import (
	"fmt"
	"math"
	"testing"
)

// codecTypes is every supported width, unsigned and signed, plus bool.
func codecTypes() []Type {
	var out []Type
	for w := uint8(1); w <= 32; w++ {
		out = append(out, Uint(w), Int(w))
	}
	return append(out, Bool())
}

// codecValues are words around a width's edges and far outside it.
func codecValues(w uint8) []Word {
	top := Word(1) << w
	half := top >> 1
	return []Word{0, 1, -1, half - 1, half, -half, -half - 1, top - 1, top, -top, top + 1,
		0x5A5A_5A5A_5A5A, math.MaxInt64, math.MinInt64}
}

// refFromRaw is the two's-complement reading written out longhand.
func refFromRaw(t Type, raw Word) Word {
	raw &= Word(1)<<t.Width - 1
	if t.Signed && raw>>(t.Width-1)&1 == 1 {
		raw -= Word(1) << t.Width
	}
	return raw
}

// TestCodecWidthTable checks every bus access path against Type's
// reading and storing of a word, at every width: Peek, PeekIdx and a
// hooked port read decode like FromRaw (a read hook's bits beyond the
// width are dropped before the next hook sees them), and Poke,
// PokeIdx, PokeRaw and a port write store ToRaw.
func TestCodecWidthTable(t *testing.T) {
	types := codecTypes()
	b := NewBuilder("codec")
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
	bus := NewBus(sys)
	r, _ := sys.Module("R")
	ex := NewExec(bus, r, 0)
	var junk Word
	bus.OnRead(func(_ PortRef, _ SignalID, raw Word) Word { return raw ^ junk })
	bus.OnRead(func(_ PortRef, sig SignalID, raw Word) Word {
		if s, _ := sys.Signal(sig); raw&^s.Type.Mask() != 0 {
			t.Fatalf("%s: chained read hook saw %#x, beyond the width", sig, raw)
		}
		return raw
	})
	for k, ty := range types {
		in, out := ins[k], outs[k]
		i, _ := sys.SignalIndex(in)
		for _, v := range codecValues(ty.Width) {
			raw, val := v&(Word(1)<<ty.Width-1), refFromRaw(ty, v)
			if got := ty.ToRaw(v); got != raw {
				t.Fatalf("%s: ToRaw(%#x) = %#x, want %#x", ty, v, got, raw)
			}
			if got := ty.FromRaw(v); got != val {
				t.Fatalf("%s: FromRaw(%#x) = %d, want %d", ty, v, got, val)
			}
			bus.Poke(in, v)
			if got := bus.PeekRaw(in); got != raw {
				t.Fatalf("%s: Poke(%#x) stored %#x, want %#x", ty, v, got, raw)
			}
			if got := bus.Peek(in); got != val {
				t.Fatalf("%s: Peek after Poke(%#x) = %d, want %d", ty, v, got, val)
			}
			bus.PokeRaw(in, 0)
			bus.PokeIdx(i, v)
			if got := bus.PeekIdx(i); got != val || bus.PeekRaw(in) != raw {
				t.Fatalf("%s: PokeIdx/PeekIdx(%#x) = %d (raw %#x), want %d (%#x)", ty, v, got, bus.PeekRaw(in), val, raw)
			}
			bus.PokeRaw(in, v)
			if got := bus.PeekRaw(in); got != raw {
				t.Fatalf("%s: PokeRaw(%#x) stored %#x, want %#x", ty, v, got, raw)
			}
			junk = ^Word(0)<<ty.Width | 1
			if got, want := ex.In(k+1), ty.FromRaw(raw^1); got != want {
				t.Fatalf("%s: hooked In of %#x = %d, want %d", ty, raw, got, want)
			}
			junk = 0
			ex.Out(k+1, v)
			if got := bus.PeekRaw(out); got != raw {
				t.Fatalf("%s: Out(%#x) stored %#x, want %#x", ty, v, got, raw)
			}
		}
	}
}
