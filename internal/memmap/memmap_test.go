package memmap

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func TestAllocAndPeek(t *testing.T) {
	var m Map
	v := m.AllocRAM("CALC", "i", model.Uint(8), 3)
	if got := v.Get(); got != 3 {
		t.Errorf("Get() = %d, want 3", got)
	}
	info := v.Info()
	if info.Owner != "CALC" || info.Name != "i" || info.Region != RegionRAM {
		t.Errorf("Info() = %+v", info)
	}
	if got := info.Address(); got != "RAM:CALC.i" {
		t.Errorf("Address() = %q, want RAM:CALC.i", got)
	}
}

func TestAllocStackDefaultsToZero(t *testing.T) {
	var m Map
	v := m.AllocStack("CALC", "tmp", model.Uint(16))
	if got := v.Get(); got != 0 {
		t.Errorf("stack var initial = %d, want 0", got)
	}
	if got := v.Info().Region; got != RegionStack {
		t.Errorf("Region = %v, want stack", got)
	}
}

func TestDuplicateAllocPanics(t *testing.T) {
	var m Map
	m.AllocRAM("M", "x", model.Uint(8), 0)
	defer func() {
		if recover() == nil {
			t.Error("duplicate Alloc did not panic")
		}
	}()
	m.AllocStack("M", "x", model.Uint(8))
}

func TestInvalidTypePanics(t *testing.T) {
	var m Map
	defer func() {
		if recover() == nil {
			t.Error("invalid type Alloc did not panic")
		}
	}()
	m.Alloc("M", "bad", RegionRAM, model.Type{Name: "w0", Width: 0}, 0)
}

func TestResetRestoresInitialValues(t *testing.T) {
	var m Map
	a := m.AllocRAM("M", "a", model.Uint(16), 100)
	b := m.AllocStack("M", "b", model.Uint(8))
	a.Set(5)
	b.Set(9)
	m.Reset()
	if got := a.Get(); got != 100 {
		t.Errorf("after Reset a = %d, want 100", got)
	}
	if got := b.Get(); got != 0 {
		t.Errorf("after Reset b = %d, want 0", got)
	}
}

func TestFlipBit(t *testing.T) {
	var m Map
	v := m.AllocRAM("M", "x", model.Uint(8), 0b1010)
	if err := m.FlipBit(v.ID(), 0); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
	if got := v.Get(); got != 0b1011 {
		t.Errorf("after flip bit 0: %#b, want 0b1011", got)
	}
	if err := m.FlipBit(v.ID(), 7); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}
	if got := v.Get(); got != 0b10001011 {
		t.Errorf("after flip bit 7: %#b, want 0b10001011", got)
	}
}

func TestFlipBitOutOfWidthErrors(t *testing.T) {
	var m Map
	v := m.AllocRAM("M", "x", model.Uint(8), 0)
	err := m.FlipBit(v.ID(), 8)
	if err == nil {
		t.Fatal("FlipBit(8) on width-8 cell returned nil error")
	}
	if !strings.Contains(err.Error(), "width") {
		t.Errorf("error %q does not mention width", err)
	}
}

// Property: flipping the same valid bit twice is the identity.
func TestQuickDoubleFlipIsIdentity(t *testing.T) {
	var m Map
	v := m.AllocRAM("M", "x", model.Uint(16), 0)
	f := func(init model.Word, bit uint8) bool {
		bit %= 16
		m.Poke(v.ID(), init)
		before := m.Peek(v.ID())
		if err := m.FlipBit(v.ID(), bit); err != nil {
			return false
		}
		mid := m.Peek(v.ID())
		if mid == before {
			return false // a flip must change the value
		}
		if err := m.FlipBit(v.ID(), bit); err != nil {
			return false
		}
		return m.Peek(v.ID()) == before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a single flip changes exactly one bit of the raw pattern.
func TestQuickFlipChangesExactlyOneBit(t *testing.T) {
	var m Map
	v := m.AllocRAM("M", "x", model.Uint(16), 0)
	f := func(init model.Word, bit uint8) bool {
		bit %= 16
		m.Poke(v.ID(), init)
		before := m.Peek(v.ID())
		if err := m.FlipBit(v.ID(), bit); err != nil {
			return false
		}
		diff := before ^ m.Peek(v.ID())
		return diff == model.Word(1)<<bit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadHooksApplyToGetNotPeek(t *testing.T) {
	var m Map
	v := m.AllocRAM("M", "x", model.Uint(8), 10)
	m.OnRead(func(info CellInfo, raw model.Word) model.Word {
		if info.Name == "x" {
			return raw ^ 0x4
		}
		return raw
	})
	if got := v.Get(); got != 14 {
		t.Errorf("hooked Get() = %d, want 14", got)
	}
	if got := m.Peek(v.ID()); got != 10 {
		t.Errorf("Peek() = %d, want 10 (hooks must not apply)", got)
	}
	m.ClearHooks()
	if got := v.Get(); got != 10 {
		t.Errorf("Get() after ClearHooks = %d, want 10", got)
	}
}

func TestCellsAndRegions(t *testing.T) {
	var m Map
	m.AllocRAM("A", "x", model.Uint(8), 0)
	m.AllocRAM("B", "y", model.Uint(16), 0)
	m.AllocStack("A", "t", model.Uint(8))
	if got := len(m.Cells()); got != 3 {
		t.Errorf("len(Cells()) = %d, want 3", got)
	}
	if got := len(m.CellsIn(RegionRAM)); got != 2 {
		t.Errorf("len(CellsIn(RAM)) = %d, want 2", got)
	}
	if got := len(m.CellsIn(RegionStack)); got != 1 {
		t.Errorf("len(CellsIn(stack)) = %d, want 1", got)
	}
}

func TestVarHelpers(t *testing.T) {
	var m Map
	b := m.AllocRAM("M", "flag", model.Bool(), 0)
	b.SetBool(true)
	if !b.GetBool() {
		t.Error("GetBool() = false after SetBool(true)")
	}
	b.SetBool(false)
	if b.GetBool() {
		t.Error("GetBool() = true after SetBool(false)")
	}

	c := m.AllocRAM("M", "ctr", model.Uint(8), 250)
	if got := c.Add(10); got != 4 {
		t.Errorf("Add past width = %d, want 4 (wraps at 256)", got)
	}
}

func TestOutOfRangeCellPanics(t *testing.T) {
	var m Map
	m.AllocRAM("M", "x", model.Uint(8), 0)
	defer func() {
		if recover() == nil {
			t.Error("Peek of bad id did not panic")
		}
	}()
	m.Peek(CellID(7))
}

// GetBool reads the variable as a boolean. A word decodes to zero
// exactly when its significant bits are zero.
func (v *Var) GetBool() bool {
	if len(v.m.reads) == 0 {
		return *v.w&v.mask != 0
	}
	return v.getHooked() != 0
}

// SetBool writes a boolean value.
func (v *Var) SetBool(b bool) {
	var x model.Word
	if b {
		x = 1
	}
	v.Set(x)
}

// Cells returns the metadata of every allocated cell, in allocation order.
func (m *Map) Cells() []CellInfo { return slices.Clone(m.infos) }

// Poke overwrites a cell (interpreted domain) without hooks.
func (m *Map) Poke(id CellID, v model.Word) {
	m.check(id)
	m.raw[id] = m.codecs[id].Encode(v)
}

// Info returns the backing cell's metadata.
func (v *Var) Info() CellInfo { return v.m.Info(v.id) }
