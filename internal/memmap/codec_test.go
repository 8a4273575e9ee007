package memmap

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/model"
)

// TestCodecWidthTable checks every cell access path against Type's
// reading and storing of a word, at every width, signed and unsigned:
// Get, Peek and a hooked Get decode like FromRaw (a read hook's bits
// beyond the width are dropped before the next hook sees them), and
// Set, Poke, PokeRaw and Alloc's initial value store ToRaw.
func TestCodecWidthTable(t *testing.T) {
	var types []model.Type
	for w := uint8(1); w <= 32; w++ {
		types = append(types, model.Uint(w), model.Int(w))
	}
	types = append(types, model.Bool())
	var m Map
	var junk model.Word
	m.OnRead(func(_ CellInfo, raw model.Word) model.Word { return raw ^ junk })
	m.OnRead(func(info CellInfo, raw model.Word) model.Word {
		if raw&^info.Type.Mask() != 0 {
			t.Fatalf("%s: chained read hook saw %#x, beyond the width", info.Address(), raw)
		}
		return raw
	})
	for k, ty := range types {
		top := model.Word(1) << ty.Width
		values := []model.Word{0, 1, -1, top/2 - 1, top / 2, -top / 2, -top/2 - 1, top - 1, top, -top,
			0x5A5A_5A5A_5A5A, math.MaxInt64, math.MinInt64}
		v := m.AllocRAM("M", fmt.Sprintf("v%d", k), ty, values[len(values)-3])
		if got := v.Info().Init; got != ty.ToRaw(values[len(values)-3]) {
			t.Fatalf("%s: Init = %#x, want %#x", ty, got, ty.ToRaw(values[len(values)-3]))
		}
		id := v.ID()
		for _, x := range values {
			raw, val := ty.ToRaw(x), ty.FromRaw(x)
			v.Set(x)
			if got := m.PeekRaw(id); got != raw {
				t.Fatalf("%s: Set(%#x) stored %#x, want %#x", ty, x, got, raw)
			}
			if got := v.Get(); got != val {
				t.Fatalf("%s: Get after Set(%#x) = %d, want %d", ty, x, got, val)
			}
			m.PokeRaw(id, 0)
			m.Poke(id, x)
			if got := m.Peek(id); got != val || m.PeekRaw(id) != raw {
				t.Fatalf("%s: Poke/Peek(%#x) = %d (raw %#x), want %d (%#x)", ty, x, got, m.PeekRaw(id), val, raw)
			}
			m.PokeRaw(id, x)
			if got := m.PeekRaw(id); got != raw {
				t.Fatalf("%s: PokeRaw(%#x) stored %#x, want %#x", ty, x, got, raw)
			}
			junk = ^model.Word(0)<<ty.Width | 1
			if got, want := v.Get(), ty.FromRaw(raw^1); got != want {
				t.Fatalf("%s: hooked Get of %#x = %d, want %d", ty, raw, got, want)
			}
			junk = 0
		}
	}
}

// TestSnapshotRestoreMatch round-trips the dense cell words through
// SnapshotInto, RestoreRaw and MatchesRaw.
func TestSnapshotRestoreMatch(t *testing.T) {
	var m Map
	a := m.AllocRAM("M", "a", model.Int(12), -5)
	b := m.AllocStack("M", "b", model.Uint(32))
	c := m.AllocRAM("M", "c", model.Bool(), 1)
	snap := m.SnapshotInto(nil)
	if want := []model.Word{0xFFB, 0, 1}; !slices.Equal(snap, want) {
		t.Fatalf("SnapshotInto = %#x, want %#x", snap, want)
	}
	if !m.MatchesRaw(snap) {
		t.Fatal("MatchesRaw(own snapshot) = false")
	}
	a.Set(7)
	b.Set(0xDEADBEEF)
	if err := m.FlipBit(c.ID(), 0); err != nil {
		t.Fatal(err)
	}
	if m.MatchesRaw(snap) {
		t.Fatal("MatchesRaw = true after the cells changed")
	}
	if want := []model.Word{0xFFB, 0, 1}; !slices.Equal(snap, want) {
		t.Fatalf("snapshot changed with the map: %#x", snap)
	}
	later := m.SnapshotInto(make([]model.Word, 1, 8))
	if cap(later) != 8 || !slices.Equal(later, []model.Word{7, 0xDEADBEEF, 0}) {
		t.Fatalf("SnapshotInto into a roomy buffer = %#x (cap %d)", later, cap(later))
	}
	m.RestoreRaw(snap)
	if !m.MatchesRaw(snap) || a.Get() != -5 || b.Get() != 0 || !c.GetBool() {
		t.Fatalf("after RestoreRaw: a=%d b=%d c=%v", a.Get(), b.Get(), c.GetBool())
	}
	for _, bad := range [][]model.Word{snap[:2], append(slices.Clone(snap), 0), nil} {
		if m.MatchesRaw(bad) {
			t.Errorf("MatchesRaw(%#x) = true for a snapshot of another length", bad)
		}
	}
}
