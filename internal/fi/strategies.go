package fi

import (
	"fmt"

	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/sched"
)

// This file holds the extended error-model menu beyond the paper's two
// models: persistent stuck-at memory cells, clustered multi-bit burst
// flips, and timing/omission errors in the scheduler slots (OpenSEA's
// fault menagerie). All strategies are deterministic — the same plan
// replays identically — and hook the same seams the paper's models use
// (pre-slot hooks, memory read hooks) plus the scheduler step-filter
// seam for the executive faults.

// StuckAt forces one bit of a memory-map cell or bus-signal store to a
// fixed value from FromMs onward, modelling a permanently failed memory
// line. RAM cells and bus signals are forced in place at the start of
// every slot (so program rewrites cannot clear the fault for longer
// than one slot); stack cells are forced at every read, because a
// reused activation frame is rewritten wholesale on each invocation.
type StuckAt struct {
	Target MemTarget
	// Value is the forced bit value, 0 or 1.
	Value uint8
	// FromMs is the scheduler time at which the fault manifests.
	FromMs int64
}

// StuckAtInjector drives one StuckAt. Attach installs Hook as a
// pre-slot hook and MemHook on the memory map.
type StuckAtInjector struct {
	s    StuckAt
	bus  *model.Bus
	mem  *memmap.Map
	mask model.Word

	nowMs   int64
	applied int
	firstMs int64
}

// NewStuckAtInjector validates the fault against the run's bus and
// memory and wraps it for installation.
func NewStuckAtInjector(s StuckAt, bus *model.Bus, mem *memmap.Map) (*StuckAtInjector, error) {
	if s.Value > 1 {
		return nil, fmt.Errorf("fi: stuck-at value %d, want 0 or 1", s.Value)
	}
	if err := validateMemTarget(s.Target, bus, mem); err != nil {
		return nil, err
	}
	return &StuckAtInjector{
		s:       s,
		bus:     bus,
		mem:     mem,
		mask:    model.Word(1) << s.Target.Bit,
		firstMs: -1,
	}, nil
}

// Hook forces the bit in place for RAM and bus-signal targets; install
// as a pre-slot hook after the environment hook.
func (si *StuckAtInjector) Hook(nowMs int64) {
	si.nowMs = nowMs
	if nowMs < si.s.FromMs {
		return
	}
	switch si.s.Target.Kind {
	case TargetRAMCell:
		si.force(si.mem.PeekRaw(si.s.Target.Cell), func(raw model.Word) {
			si.mem.PokeRaw(si.s.Target.Cell, raw)
		})
	case TargetBusSignal:
		si.force(si.bus.PeekRaw(si.s.Target.Signal), func(raw model.Word) {
			si.bus.PokeRaw(si.s.Target.Signal, raw)
		})
	}
}

// force applies the stuck bit to raw and stores it when it changed,
// keeping the corruption accounting.
func (si *StuckAtInjector) force(raw model.Word, store func(model.Word)) {
	forced := si.forcedValue(raw)
	if forced == raw {
		return
	}
	store(forced)
	si.applied++
	if si.firstMs < 0 {
		si.firstMs = si.nowMs
	}
}

func (si *StuckAtInjector) forcedValue(raw model.Word) model.Word {
	if si.s.Value == 0 {
		return raw &^ si.mask
	}
	return raw | si.mask
}

// MemHook returns the memory read hook forcing stack-cell reads; no-op
// for other target kinds. Install with Map.OnRead.
func (si *StuckAtInjector) MemHook() memmap.ReadHook {
	return func(info memmap.CellInfo, raw model.Word) model.Word {
		if si.s.Target.Kind != TargetStackCell || si.nowMs < si.s.FromMs || info.ID != si.s.Target.Cell {
			return raw
		}
		forced := si.forcedValue(raw)
		if forced != raw {
			si.applied++
			if si.firstMs < 0 {
				si.firstMs = si.nowMs
			}
		}
		return forced
	}
}

// Attach installs the forcing hook and the stack read hook.
func (si *StuckAtInjector) Attach(s *sched.Scheduler, _ *model.Bus, mem *memmap.Map) {
	s.OnPreSlot(si.Hook)
	mem.OnRead(si.MemHook())
}

// Applied returns how many corruptions landed (bit actually changed)
// and when the first one happened (-1 if none).
func (si *StuckAtInjector) Applied() (int, int64) { return si.applied, si.firstMs }

// BurstFlip flips Width adjacent bits of a memory-map cell or
// bus-signal store exactly once, at the first slot at or after FromMs —
// a clustered multi-bit upset from one particle strike. RAM cells and
// bus signals are corrupted in place; stack cells arm a one-shot
// corruption of the next read.
type BurstFlip struct {
	// Target names the cell or signal; Target.Bit is the lowest
	// affected bit.
	Target MemTarget
	// Width is the number of adjacent bits flipped (>= 1).
	Width uint8
	// FromMs is the earliest scheduler time the burst lands.
	FromMs int64
}

// BurstFlipInjector drives one BurstFlip. Attach installs Hook as a
// pre-slot hook and MemHook on the memory map.
type BurstFlipInjector struct {
	b    BurstFlip
	bus  *model.Bus
	mem  *memmap.Map
	mask model.Word

	nowMs   int64
	armed   bool
	applied int
	firstMs int64
}

// NewBurstFlipInjector validates the burst against the run's bus and
// memory and wraps it for installation.
func NewBurstFlipInjector(b BurstFlip, bus *model.Bus, mem *memmap.Map) (*BurstFlipInjector, error) {
	if b.Width < 1 {
		return nil, fmt.Errorf("fi: burst width must be >= 1")
	}
	width, err := memTargetWidth(b.Target, bus, mem)
	if err != nil {
		return nil, err
	}
	if int(b.Target.Bit)+int(b.Width) > int(width) {
		return nil, fmt.Errorf("fi: burst bits %d..%d outside width %d",
			b.Target.Bit, int(b.Target.Bit)+int(b.Width)-1, width)
	}
	return &BurstFlipInjector{
		b:       b,
		bus:     bus,
		mem:     mem,
		mask:    ((model.Word(1) << b.Width) - 1) << b.Target.Bit,
		firstMs: -1,
	}, nil
}

// Hook fires the one-shot burst once due; install as a pre-slot hook.
func (bi *BurstFlipInjector) Hook(nowMs int64) {
	bi.nowMs = nowMs
	if bi.applied > 0 || bi.armed || nowMs < bi.b.FromMs {
		return
	}
	switch bi.b.Target.Kind {
	case TargetRAMCell:
		bi.mem.PokeRaw(bi.b.Target.Cell, bi.mem.PeekRaw(bi.b.Target.Cell)^bi.mask)
		bi.land()
	case TargetBusSignal:
		bi.bus.PokeRaw(bi.b.Target.Signal, bi.bus.PeekRaw(bi.b.Target.Signal)^bi.mask)
		bi.land()
	case TargetStackCell:
		bi.armed = true
	}
}

func (bi *BurstFlipInjector) land() {
	bi.applied++
	if bi.firstMs < 0 {
		bi.firstMs = bi.nowMs
	}
}

// MemHook returns the memory read hook consuming an armed stack burst;
// no-op for other target kinds. Install with Map.OnRead.
func (bi *BurstFlipInjector) MemHook() memmap.ReadHook {
	return func(info memmap.CellInfo, raw model.Word) model.Word {
		if bi.b.Target.Kind != TargetStackCell || !bi.armed || info.ID != bi.b.Target.Cell {
			return raw
		}
		bi.armed = false
		bi.land()
		return raw ^ bi.mask
	}
}

// Attach installs the burst hook and the stack read hook.
func (bi *BurstFlipInjector) Attach(s *sched.Scheduler, _ *model.Bus, mem *memmap.Map) {
	s.OnPreSlot(bi.Hook)
	mem.OnRead(bi.MemHook())
}

// Applied returns whether the burst landed (1 or 0 corruptions) and
// when (-1 if never).
func (bi *BurstFlipInjector) Applied() (int, int64) { return bi.applied, bi.firstMs }

// SlotFaultMode selects the executive error model for one module.
type SlotFaultMode int

// Scheduler slot fault modes.
const (
	// SlotOmission skips the module's scheduled steps entirely during
	// the fault window — the task never runs (crash/omission failure).
	SlotOmission SlotFaultMode = iota + 1
	// SlotDelay defers the module's steps to the end of their slot
	// during the fault window, so they observe inputs produced later in
	// the slot and publish outputs late (timing failure).
	SlotDelay
)

// String implements fmt.Stringer.
func (m SlotFaultMode) String() string {
	switch m {
	case SlotOmission:
		return "omission"
	case SlotDelay:
		return "delay"
	default:
		return "unknown slot fault"
	}
}

// SlotFault is a timing/omission error in the slot-based executive: one
// module's scheduled steps are skipped or deferred while the scheduler
// clock is inside [FromMs, UntilMs). UntilMs <= 0 means the fault
// persists to the end of the run.
type SlotFault struct {
	Module  model.ModuleID
	Mode    SlotFaultMode
	FromMs  int64
	UntilMs int64
}

// SlotFaultInjector drives one SlotFault through the scheduler's step
// filter seam. Attach installs Filter with Scheduler.OnStep.
type SlotFaultInjector struct {
	f       SlotFault
	applied int
	firstMs int64
}

// NewSlotFaultInjector validates the fault against the system and wraps
// it for installation.
func NewSlotFaultInjector(f SlotFault, sys *model.System) (*SlotFaultInjector, error) {
	if _, ok := sys.Module(f.Module); !ok {
		return nil, fmt.Errorf("fi: unknown module %q", f.Module)
	}
	switch f.Mode {
	case SlotOmission, SlotDelay:
	default:
		return nil, fmt.Errorf("fi: invalid slot fault mode %d", int(f.Mode))
	}
	if f.UntilMs > 0 && f.UntilMs <= f.FromMs {
		return nil, fmt.Errorf("fi: empty slot fault window [%d, %d)", f.FromMs, f.UntilMs)
	}
	return &SlotFaultInjector{f: f, firstMs: -1}, nil
}

// Filter returns the scheduler step filter realizing the fault.
func (sf *SlotFaultInjector) Filter() sched.StepFilter {
	return func(id model.ModuleID, nowMs int64) sched.StepAction {
		if id != sf.f.Module || nowMs < sf.f.FromMs || (sf.f.UntilMs > 0 && nowMs >= sf.f.UntilMs) {
			return sched.StepRun
		}
		sf.applied++
		if sf.firstMs < 0 {
			sf.firstMs = nowMs
		}
		if sf.f.Mode == SlotOmission {
			return sched.StepSkip
		}
		return sched.StepDefer
	}
}

// Attach installs the step filter.
func (sf *SlotFaultInjector) Attach(s *sched.Scheduler, _ *model.Bus, _ *memmap.Map) {
	s.OnStep(sf.Filter())
}

// Applied returns how many scheduled steps were disturbed and when the
// first disturbance happened (-1 if none).
func (sf *SlotFaultInjector) Applied() (int, int64) { return sf.applied, sf.firstMs }

// validateMemTarget checks that a MemTarget names a real cell or signal
// and that its bit lies inside the declared width.
func validateMemTarget(t MemTarget, bus *model.Bus, mem *memmap.Map) error {
	width, err := memTargetWidth(t, bus, mem)
	if err != nil {
		return err
	}
	if t.Bit >= width {
		return fmt.Errorf("fi: bit %d outside width %d", t.Bit, width)
	}
	return nil
}

// memTargetWidth resolves the declared width of a MemTarget.
func memTargetWidth(t MemTarget, bus *model.Bus, mem *memmap.Map) (uint8, error) {
	switch t.Kind {
	case TargetRAMCell, TargetStackCell:
		return mem.Info(t.Cell).Type.Width, nil
	case TargetBusSignal:
		sig, ok := bus.System().Signal(t.Signal)
		if !ok {
			return 0, fmt.Errorf("fi: unknown signal %q", t.Signal)
		}
		return sig.Type.Width, nil
	default:
		return 0, fmt.Errorf("fi: invalid target kind %d", int(t.Kind))
	}
}
