package fi

import (
	"fmt"

	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/sched"
)

// CorruptionKind selects an error model for read corruption. The paper
// uses CorruptTransient throughout and shows its conclusions are
// error-model sensitive; the additional kinds let the experiment layer
// probe that sensitivity on the input side as well (DESIGN.md index A1).
type CorruptionKind int

// Read-corruption error models.
const (
	// CorruptTransient flips one bit at exactly one read — the paper's
	// input error model.
	CorruptTransient CorruptionKind = iota + 1
	// CorruptStuckAt0 forces one bit to 0 at every read from FromMs on
	// (a permanently failed sensor line).
	CorruptStuckAt0
	// CorruptStuckAt1 forces one bit to 1 at every read from FromMs on.
	CorruptStuckAt1
	// CorruptBurst flips BurstWidth adjacent bits at exactly one read
	// (a bus glitch spanning several lines).
	CorruptBurst
	// CorruptIntermittent flips one bit at every PeriodReads-th read
	// from FromMs on (a loose contact).
	CorruptIntermittent
)

// String implements fmt.Stringer.
func (k CorruptionKind) String() string {
	switch k {
	case CorruptTransient:
		return "transient"
	case CorruptStuckAt0:
		return "stuck-at-0"
	case CorruptStuckAt1:
		return "stuck-at-1"
	case CorruptBurst:
		return "burst"
	case CorruptIntermittent:
		return "intermittent"
	default:
		return "unknown corruption"
	}
}

// Corruption describes one read-corruption injection.
type Corruption struct {
	Kind CorruptionKind
	// Port is the reading module input port whose reads are corrupted.
	Port model.PortRef
	// Bit is the (lowest) affected bit.
	Bit uint8
	// BurstWidth is the number of adjacent bits for CorruptBurst.
	BurstWidth uint8
	// PeriodReads is the read period for CorruptIntermittent.
	PeriodReads int
	// FromMs is the earliest scheduler time the corruption applies.
	FromMs int64
}

// Validate reports whether the corruption is well formed against the
// signal width it will target.
func (c Corruption) Validate(width uint8) error {
	switch c.Kind {
	case CorruptTransient, CorruptStuckAt0, CorruptStuckAt1:
		if c.Bit >= width {
			return fmt.Errorf("fi: bit %d outside width %d", c.Bit, width)
		}
	case CorruptBurst:
		if c.BurstWidth < 1 {
			return fmt.Errorf("fi: burst width must be >= 1")
		}
		if int(c.Bit)+int(c.BurstWidth) > int(width) {
			return fmt.Errorf("fi: burst bits %d..%d outside width %d", c.Bit, int(c.Bit)+int(c.BurstWidth)-1, width)
		}
	case CorruptIntermittent:
		if c.Bit >= width {
			return fmt.Errorf("fi: bit %d outside width %d", c.Bit, width)
		}
		if c.PeriodReads < 1 {
			return fmt.Errorf("fi: intermittent period must be >= 1")
		}
	default:
		return fmt.Errorf("fi: unknown corruption kind %d", int(c.Kind))
	}
	return nil
}

// CorruptionInjector drives one Corruption. Attach installs Hook as a
// pre-slot hook and ReadHook on the bus.
type CorruptionInjector struct {
	c     Corruption
	nowMs int64

	reads     int // matching reads seen since FromMs
	applied   int // corrupted reads
	firstMs   int64
	oneshotOK bool
}

// NewCorruptionInjector validates the corruption against the signal
// bound to its port and wraps it for installation.
func NewCorruptionInjector(c Corruption, bus *model.Bus) (*CorruptionInjector, error) {
	m, ok := bus.System().Module(c.Port.Module)
	if !ok {
		return nil, fmt.Errorf("fi: unknown module %q", c.Port.Module)
	}
	sid, ok := m.InputSignal(c.Port.Index)
	if !ok {
		return nil, fmt.Errorf("fi: module %s has no input %d", c.Port.Module, c.Port.Index)
	}
	sig, _ := bus.System().Signal(sid)
	if err := c.Validate(sig.Type.Width); err != nil {
		return nil, err
	}
	return &CorruptionInjector{c: c, firstMs: -1}, nil
}

// Hook maintains the injector clock; install as a pre-slot hook.
func (ci *CorruptionInjector) Hook(nowMs int64) { ci.nowMs = nowMs }

// Attach installs the clock hook and the read hook.
func (ci *CorruptionInjector) Attach(s *sched.Scheduler, bus *model.Bus, _ *memmap.Map) {
	s.OnPreSlot(ci.Hook)
	bus.OnRead(ci.ReadHook())
}

// ReadHook returns the bus read hook realizing the corruption.
func (ci *CorruptionInjector) ReadHook() model.ReadHook {
	return func(port model.PortRef, sig model.SignalID, raw model.Word) model.Word {
		if port != ci.c.Port || ci.nowMs < ci.c.FromMs {
			return raw
		}
		ci.reads++
		var corrupted model.Word
		switch ci.c.Kind {
		case CorruptTransient:
			if ci.oneshotOK {
				return raw
			}
			ci.oneshotOK = true
			corrupted = raw ^ (model.Word(1) << ci.c.Bit)
		case CorruptStuckAt0:
			corrupted = raw &^ (model.Word(1) << ci.c.Bit)
		case CorruptStuckAt1:
			corrupted = raw | (model.Word(1) << ci.c.Bit)
		case CorruptBurst:
			if ci.oneshotOK {
				return raw
			}
			ci.oneshotOK = true
			mask := ((model.Word(1) << ci.c.BurstWidth) - 1) << ci.c.Bit
			corrupted = raw ^ mask
		case CorruptIntermittent:
			if (ci.reads-1)%ci.c.PeriodReads != 0 {
				return raw
			}
			corrupted = raw ^ (model.Word(1) << ci.c.Bit)
		default:
			return raw
		}
		if corrupted != raw {
			ci.applied++
			if ci.firstMs < 0 {
				ci.firstMs = ci.nowMs
			}
		}
		return corrupted
	}
}

// Applied returns how many reads were corrupted and when the first one
// happened (-1 if none). Stuck-at corruption of a bit that already holds
// the forced value corrupts nothing and is not counted.
func (ci *CorruptionInjector) Applied() (int, int64) { return ci.applied, ci.firstMs }
