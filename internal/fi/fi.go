// Package fi is the fault-injection engine, substituting for the
// authors' proprietary Windows FI tool (Hiller, TR 00-19). It realizes
// the paper's two error models:
//
//   - Input model (Sections 5–6): a single transient bit-flip observed at
//     one module's read of one signal — "errors in the input signals of
//     the modules", injected once per run. Realized as a one-shot bus
//     read hook, so the stored value is untouched and exactly one read
//     observes the corruption.
//   - Internal (severe) model (Section 7): single bit-flips injected
//     "periodically with a period of 20 ms" into RAM and stack. RAM
//     targets (module state cells and shared-memory signal stores) are
//     corrupted in place at every tick; stack targets (locals in reused
//     activation frames) are armed at every tick and corrupt the next
//     read, modelling a flip landing in a live frame.
//
// Injectors are deterministic: given the same plan, a run replays
// identically. Campaign-level randomness (which bit, when) is drawn by
// the experiment layer from seeded generators.
package fi

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/sched"
)

// ReadFlip is a one-shot transient bit-flip observed at a module input
// port read: the first read of the port at or after FromMs sees the
// stored value with Bit inverted.
type ReadFlip struct {
	// Port is the reading module input port.
	Port model.PortRef
	// Bit is the bit to invert (must be below the signal width; the
	// experiment layer draws it against the declared width).
	Bit uint8
	// FromMs is the earliest scheduler time at which the flip applies.
	FromMs int64

	applied   bool
	appliedAt int64
}

// markApplied is used by armedReadFlip.
func (f *ReadFlip) markApplied(now int64) {
	f.applied = true
	f.appliedAt = now
}

// Applied reports whether the flip was observed, and at what time.
func (f *ReadFlip) Applied() (bool, int64) { return f.applied, f.appliedAt }

// Injector drives one ReadFlip with time gating. Attach installs Hook
// as a pre-slot hook (it updates the clock the read hook consults) and
// ReadHook on the bus.
//
// Once the flip has applied, the read hook can only return what it is
// given, so the first pre-slot hook after that removes it from the bus:
// the rest of the run reads ports without hook dispatch.
type Injector struct {
	flip  *ReadFlip
	nowMs int64
	bus   *model.Bus // the bus Attach installed the read hook on, until removed
	read  model.ReadHookID
}

// NewInjector wraps a ReadFlip for installation.
func NewInjector(flip *ReadFlip) *Injector {
	return &Injector{flip: flip}
}

// Hook is the scheduler pre-slot hook maintaining the injector's clock;
// it removes Attach's read hook once the flip has applied.
func (in *Injector) Hook(nowMs int64) {
	in.nowMs = nowMs
	if in.bus != nil && in.flip.applied {
		in.bus.RemoveRead(in.read)
		in.bus = nil
	}
}

// ReadHook is the bus read hook applying the one-shot flip once due.
func (in *Injector) ReadHook() model.ReadHook {
	return func(port model.PortRef, sig model.SignalID, raw model.Word) model.Word {
		f := in.flip
		if f.applied || in.nowMs < f.FromMs || port != f.Port {
			return raw
		}
		f.markApplied(in.nowMs)
		return raw ^ (model.Word(1) << f.Bit)
	}
}

// Attach installs the clock hook and the read hook.
func (in *Injector) Attach(s *sched.Scheduler, bus *model.Bus, _ *memmap.Map) {
	s.OnPreSlot(in.Hook)
	in.bus, in.read = bus, bus.OnRead(in.ReadHook())
}

// Applied reports whether the flip was observed (1 or 0 corruptions)
// and when (-1 if never).
func (in *Injector) Applied() (int, int64) {
	if !in.flip.applied {
		return 0, -1
	}
	return 1, in.flip.appliedAt
}

// TargetKind classifies a memory-injection target of the severe model.
type TargetKind int

// Memory target kinds.
const (
	// TargetRAMCell is a module state variable: flips persist in place.
	TargetRAMCell TargetKind = iota + 1
	// TargetStackCell is a local in a reused activation frame: each tick
	// arms a transient corruption of the next read.
	TargetStackCell
	// TargetBusSignal is the shared-memory store of a signal: flips
	// persist until the producing module rewrites the signal.
	TargetBusSignal
)

// String implements fmt.Stringer.
func (k TargetKind) String() string {
	switch k {
	case TargetRAMCell:
		return "ram"
	case TargetStackCell:
		return "stack"
	case TargetBusSignal:
		return "signal"
	default:
		return "unknown"
	}
}

// MemTarget is one (location, bit) pair of the severe error model.
type MemTarget struct {
	Kind   TargetKind
	Cell   memmap.CellID  // for TargetRAMCell / TargetStackCell
	Signal model.SignalID // for TargetBusSignal
	Bit    uint8
}

// Describe renders the target, e.g. "ram:RAM:CALC.i bit3".
func (t MemTarget) Describe(mem *memmap.Map) string {
	switch t.Kind {
	case TargetRAMCell, TargetStackCell:
		return fmt.Sprintf("%s:%s bit%d", t.Kind, mem.Info(t.Cell).Address(), t.Bit)
	case TargetBusSignal:
		return fmt.Sprintf("%s:%s bit%d", t.Kind, t.Signal, t.Bit)
	default:
		return "unknown target"
	}
}

// PeriodicInjector applies the severe model to one MemTarget: every
// PeriodMs starting at FromMs it corrupts the target (or arms a stack
// corruption). Attach installs Hook as a pre-slot hook and MemHook on
// the memory map.
type PeriodicInjector struct {
	Target   MemTarget
	PeriodMs int64
	FromMs   int64

	bus      *model.Bus
	mem      *memmap.Map
	nextMs   int64
	armed    bool
	injected int
	firstMs  int64
}

// NewPeriodicInjector builds an injector over the run's bus and memory.
func NewPeriodicInjector(target MemTarget, periodMs, fromMs int64, bus *model.Bus, mem *memmap.Map) (*PeriodicInjector, error) {
	if periodMs <= 0 {
		return nil, fmt.Errorf("fi: period %d must be positive", periodMs)
	}
	switch target.Kind {
	case TargetRAMCell, TargetStackCell:
		info := mem.Info(target.Cell)
		if target.Bit >= info.Type.Width {
			return nil, fmt.Errorf("fi: bit %d outside %s (width %d)", target.Bit, info.Address(), info.Type.Width)
		}
	case TargetBusSignal:
		sig, ok := bus.System().Signal(target.Signal)
		if !ok {
			return nil, fmt.Errorf("fi: unknown signal %q", target.Signal)
		}
		if target.Bit >= sig.Type.Width {
			return nil, fmt.Errorf("fi: bit %d outside signal %s (width %d)", target.Bit, target.Signal, sig.Type.Width)
		}
	default:
		return nil, fmt.Errorf("fi: invalid target kind %d", int(target.Kind))
	}
	return &PeriodicInjector{
		Target:   target,
		PeriodMs: periodMs,
		FromMs:   fromMs,
		bus:      bus,
		mem:      mem,
		nextMs:   fromMs,
		firstMs:  -1,
	}, nil
}

// Hook fires the periodic corruption; attach as a scheduler pre-slot
// hook (after the environment hook, so sensor refreshes cannot mask it).
func (pi *PeriodicInjector) Hook(nowMs int64) {
	if nowMs < pi.nextMs {
		return
	}
	pi.nextMs = nowMs + pi.PeriodMs
	if pi.injected == 0 {
		pi.firstMs = nowMs
	}
	pi.injected++
	switch pi.Target.Kind {
	case TargetRAMCell:
		// Width was validated at construction; FlipBit cannot fail here.
		if err := pi.mem.FlipBit(pi.Target.Cell, pi.Target.Bit); err != nil {
			panic(fmt.Sprintf("fi: %v", err))
		}
	case TargetStackCell:
		pi.armed = true
	case TargetBusSignal:
		raw := pi.bus.PeekRaw(pi.Target.Signal)
		pi.bus.PokeRaw(pi.Target.Signal, raw^(model.Word(1)<<pi.Target.Bit))
	}
}

// MemHook returns the memory read hook consuming armed stack
// corruptions. Install with Map.OnRead (no-op for non-stack targets).
func (pi *PeriodicInjector) MemHook() memmap.ReadHook {
	return func(info memmap.CellInfo, raw model.Word) model.Word {
		if pi.Target.Kind != TargetStackCell || !pi.armed || info.ID != pi.Target.Cell {
			return raw
		}
		pi.armed = false
		return raw ^ (model.Word(1) << pi.Target.Bit)
	}
}

// Attach installs the periodic hook and the stack read hook.
func (pi *PeriodicInjector) Attach(s *sched.Scheduler, _ *model.Bus, mem *memmap.Map) {
	s.OnPreSlot(pi.Hook)
	mem.OnRead(pi.MemHook())
}

// Applied returns how many ticks fired and when the first one did (-1
// if none).
func (pi *PeriodicInjector) Applied() (int, int64) { return pi.injected, pi.firstMs }

// EnumerateRAMTargets lists every (location, bit) of the RAM portion of
// the severe model: all bits of module RAM cells plus all bits of the
// shared-memory stores of intermediate and system-output signals (system
// inputs are hardware registers refreshed by sensors, not program RAM).
func EnumerateRAMTargets(sys *model.System, mem *memmap.Map) []MemTarget {
	var out []MemTarget
	for _, c := range mem.CellsIn(memmap.RegionRAM) {
		for b := uint8(0); b < c.Type.Width; b++ {
			out = append(out, MemTarget{Kind: TargetRAMCell, Cell: c.ID, Bit: b})
		}
	}
	for _, sig := range sys.Signals() {
		if sig.Kind == model.KindSystemInput {
			continue
		}
		for b := uint8(0); b < sig.Type.Width; b++ {
			out = append(out, MemTarget{Kind: TargetBusSignal, Signal: sig.ID, Bit: b})
		}
	}
	return out
}

// EnumerateStackTargets lists every (location, bit) of the stack region.
func EnumerateStackTargets(mem *memmap.Map) []MemTarget {
	var out []MemTarget
	for _, c := range mem.CellsIn(memmap.RegionStack) {
		for b := uint8(0); b < c.Type.Width; b++ {
			out = append(out, MemTarget{Kind: TargetStackCell, Cell: c.ID, Bit: b})
		}
	}
	return out
}

// SampleTargets draws n distinct targets deterministically from the
// list (the paper's campaigns pick 150 RAM and 50 stack locations). If
// n >= len(targets), a copy of the full list is returned.
func SampleTargets(targets []MemTarget, n int, seed int64) []MemTarget {
	cp := append([]MemTarget(nil), targets...)
	if n >= len(cp) {
		return cp
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cp), func(i, j int) { cp[i], cp[j] = cp[j], cp[i] })
	cp = cp[:n]
	// Stable order for reproducible reports.
	sort.Slice(cp, func(i, j int) bool {
		a, b := cp[i], cp[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Cell != b.Cell {
			return a.Cell < b.Cell
		}
		if a.Signal != b.Signal {
			return a.Signal < b.Signal
		}
		return a.Bit < b.Bit
	})
	return cp
}
