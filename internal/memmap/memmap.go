// Package memmap simulates the byte-level memory of the embedded target:
// per-module RAM regions holding persistent state and a stack region
// holding invocation frames. It exists so the paper's severe error model
// (Section 7: periodic bit-flips into "150 locations in RAM and 50
// locations in the stack") has a faithful substrate even though we run on
// a hosted Go runtime instead of an MC68HC11-class microcontroller.
//
// Modules allocate variables (Var) in a Map. RAM variables persist across
// invocations (counters, integrators, previous samples); stack variables
// model locals in a reused activation frame: they keep their cell between
// invocations, so corrupting one affects the next invocation only if the
// module consumes the local before overwriting it — the same
// live-range-dependent masking real stack flips exhibit.
//
// Fault injection corrupts cells directly (FlipBit) or transiently at
// read time (read hooks), mirroring the two injection styles of the
// paper's FI tool.
package memmap

import (
	"fmt"
	"slices"

	"repro/internal/model"
)

// Region classifies where a cell lives.
type Region int

// Memory regions.
const (
	RegionRAM Region = iota + 1
	RegionStack
)

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case RegionRAM:
		return "RAM"
	case RegionStack:
		return "stack"
	default:
		return "unknown"
	}
}

// CellID indexes a cell within a Map.
type CellID int

// CellInfo describes one allocated cell.
type CellInfo struct {
	ID     CellID
	Owner  string // owning module
	Name   string // variable name, unique per owner
	Region Region
	Type   model.Type
	Init   model.Word
}

// Address renders a symbolic address like "RAM:CALC.i".
func (c CellInfo) Address() string {
	return fmt.Sprintf("%s:%s.%s", c.Region, c.Owner, c.Name)
}

// ReadHook intercepts a hooked read of a cell, receiving and returning
// the raw bit pattern. Transient stack-corruption injection attaches here.
type ReadHook func(info CellInfo, raw model.Word) model.Word

// WriteHook observes a hooked write of a cell after the raw bit pattern
// is stored. Write hooks are observers only — they cannot alter the
// stored value — and fire for module writes (Var.Set and friends), not
// for experiment-side mutation (Poke, FlipBit, Reset), so a liveness
// profiler sees exactly the program's own def/use behaviour.
type WriteHook func(info CellInfo, raw model.Word)

// Map is a simulated memory map. The zero value is ready to use. A Map is
// not safe for concurrent use; every experiment run owns its own Map.
//
// Cell words are stored densely, apart from their metadata, so a
// checkpoint restore or match is one copy or comparison, and every
// cell's codec is precomputed at allocation.
type Map struct {
	raw    []model.Word        // stored bit patterns, by cell ID
	init   []model.Word        // initial bit patterns, by cell ID
	codecs []model.Codec       // the cell types' word codecs, by cell ID
	infos  []CellInfo          // metadata, by cell ID
	vars   []*Var              // the Var of every cell, by cell ID
	names  map[string]struct{} // "owner.name" uniqueness
	reads  []ReadHook
	writes []WriteHook
}

// Alloc allocates a cell and returns a Var handle bound to it. It panics
// on duplicate owner/name pairs or invalid types — allocation happens at
// construction time with statically-known arguments, so an error return
// would only be plumbing.
func (m *Map) Alloc(owner, name string, region Region, t model.Type, initial model.Word) *Var {
	if err := t.Validate(); err != nil {
		panic(fmt.Sprintf("memmap: alloc %s.%s: %v", owner, name, err))
	}
	if m.names == nil {
		m.names = make(map[string]struct{})
	}
	key := owner + "." + name
	if _, dup := m.names[key]; dup {
		panic(fmt.Sprintf("memmap: duplicate cell %s", key))
	}
	m.names[key] = struct{}{}
	id := CellID(len(m.infos))
	c := t.Codec()
	w := c.Encode(initial)
	m.raw = append(m.raw, w)
	m.init = append(m.init, w)
	m.codecs = append(m.codecs, c)
	m.infos = append(m.infos, CellInfo{ID: id, Owner: owner, Name: name, Region: region, Type: t, Init: w})
	v := &Var{m: m, id: id}
	v.mask, v.sign = c.Bits()
	m.vars = append(m.vars, v)
	for i, v := range m.vars { // append may have moved the words
		v.w = &m.raw[i]
	}
	return v
}

// AllocRAM allocates a persistent state variable.
func (m *Map) AllocRAM(owner, name string, t model.Type, initial model.Word) *Var {
	return m.Alloc(owner, name, RegionRAM, t, initial)
}

// AllocStack allocates a local variable in the owner's reused stack frame.
func (m *Map) AllocStack(owner, name string, t model.Type) *Var {
	return m.Alloc(owner, name, RegionStack, t, 0)
}

// Reset restores every cell to its initial value, keeping hooks.
func (m *Map) Reset() { copy(m.raw, m.init) }

// SnapshotInto copies every cell's raw value into dst, in cell-ID
// order, and returns the filled slice (dst's storage is reused when
// large enough).
func (m *Map) SnapshotInto(dst []model.Word) []model.Word {
	if cap(dst) < len(m.raw) {
		dst = make([]model.Word, len(m.raw))
	}
	dst = dst[:len(m.raw)]
	copy(dst, m.raw)
	return dst
}

// RestoreRaw overwrites every cell with the raw values of a SnapshotInto
// result taken from a map allocated in the same order, without hooks.
func (m *Map) RestoreRaw(src []model.Word) { copy(m.raw, src) }

// MatchesRaw reports whether every cell holds the raw value recorded in
// a SnapshotInto result.
func (m *Map) MatchesRaw(src []model.Word) bool { return slices.Equal(m.raw, src) }

// OnRead installs a read hook; hooks chain in installation order.
func (m *Map) OnRead(h ReadHook) { m.reads = append(m.reads, h) }

// OnWrite installs a write hook; hooks run in installation order.
func (m *Map) OnWrite(h WriteHook) { m.writes = append(m.writes, h) }

// ClearHooks removes all read and write hooks.
func (m *Map) ClearHooks() {
	m.reads = nil
	m.writes = nil
}

// CellsIn returns the metadata of every cell in the given region.
func (m *Map) CellsIn(region Region) []CellInfo {
	var out []CellInfo
	for _, info := range m.infos {
		if info.Region == region {
			out = append(out, info)
		}
	}
	return out
}

// Info returns the metadata of one cell.
func (m *Map) Info(id CellID) CellInfo {
	m.check(id)
	return m.infos[id]
}

// FlipBit XORs one bit of the stored cell value. Bit positions at or
// above the cell width are reported as an error: the paper's injector
// targets occupied locations, so flipping a nonexistent bit would
// silently weaken a campaign.
func (m *Map) FlipBit(id CellID, bit uint8) error {
	m.check(id)
	info := &m.infos[id]
	if bit >= info.Type.Width {
		return fmt.Errorf("memmap: flip bit %d of %s (width %d)", bit, info.Address(), info.Type.Width)
	}
	m.raw[id] ^= model.Word(1) << bit
	return nil
}

// PeekRaw returns the stored bit pattern of a cell without hooks.
// Fault-injection strategies that force individual bits (stuck-at,
// burst) work in the raw domain so signed encodings cannot distort the
// corruption.
func (m *Map) PeekRaw(id CellID) model.Word {
	m.check(id)
	return m.raw[id]
}

// PokeRaw overwrites a cell's stored bit pattern without hooks. The
// pattern is masked to the cell width.
func (m *Map) PokeRaw(id CellID, raw model.Word) {
	m.check(id)
	m.raw[id] = m.codecs[id].Encode(raw)
}

// Peek returns the interpreted value of a cell without hooks.
func (m *Map) Peek(id CellID) model.Word {
	m.check(id)
	return m.codecs[id].Decode(m.raw[id])
}

func (m *Map) check(id CellID) {
	if id < 0 || int(id) >= len(m.infos) {
		panic(fmt.Sprintf("memmap: cell id %d out of range (have %d cells)", id, len(m.infos)))
	}
}

// Var is a module-owned variable backed by a memory cell. Get goes
// through read hooks (so transient injection is observed); Set stores
// directly and then notifies write hooks.
//
// A Var points at its word in the map's dense storage (Alloc re-points
// every Var after each append, which may move the storage; Reset,
// RestoreRaw and the mutators write in place) and carries its cell's
// codec bits, so with no hook installed Get and Set inline to one load
// or store. They must stay within the inlining budget
// (TestVarFastPathInlines).
type Var struct {
	w          *model.Word
	mask, sign model.Word // the cell codec's Bits
	m          *Map
	id         CellID
}

// Get reads the variable through read hooks.
func (v *Var) Get() model.Word {
	if len(v.m.reads) == 0 {
		return (*v.w&v.mask ^ v.sign) - v.sign // Codec.Decode
	}
	return v.getHooked()
}

// getHooked is Get with read hooks installed: hooks chain in
// installation order, and each hook's result is masked to the cell
// width before the next hook sees it.
func (v *Var) getHooked() model.Word {
	m, c, raw := v.m, v.m.codecs[v.id], *v.w
	for _, h := range m.reads {
		raw = c.Encode(h(m.infos[v.id], raw))
	}
	return c.Decode(raw)
}

// Set writes the variable.
func (v *Var) Set(x model.Word) {
	if len(v.m.writes) == 0 {
		*v.w = x & v.mask // Codec.Encode
		return
	}
	v.setHooked(x)
}

// setHooked is Set with write hooks installed: they observe the stored
// word in installation order.
func (v *Var) setHooked(x model.Word) {
	m, raw := v.m, x&v.mask
	*v.w = raw
	for _, h := range m.writes {
		h(m.infos[v.id], raw)
	}
}

// Add adds delta to the variable (with width wrap-around) and returns the
// new value.
func (v *Var) Add(delta model.Word) model.Word {
	v.Set(v.Get() + delta)
	return v.m.Peek(v.id)
}

// ID returns the backing cell's identity.
func (v *Var) ID() CellID { return v.id }
