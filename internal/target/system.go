// Package target is the paper's target system: the embedded control
// program of an aircraft arrestment rig (Hiller/Jhumka/Suri, DSN 2002,
// Section 5). Six software modules exchange ten signals over a shared
// memory bus and drive a hydraulic brake valve so that an aircraft
// engaging the arrestment cable is stopped inside the runway without
// exceeding the structural retardation and cable-force limits.
//
// The module and signal names follow the paper's Figure 2: CLOCK owns
// the 10 ms minor-cycle bookkeeping, DIST_S and PRES_S are the sensor
// conditioning modules for the rotation counter and the pressure ADC,
// CALC computes the pressure set point from the braking profile, V_REG
// closes the pressure loop, and PRES_A drives the valve actuator
// register.
package target

import (
	"sync"

	"repro/internal/memmap"
	"repro/internal/model"
)

// Signal names of the arrestment target (paper Fig. 2).
const (
	// SigPACNT is the pulse accumulator: rotation pulses from the
	// cable drum, 10 pulses per metre of tape.
	SigPACNT model.SignalID = "PACNT"
	// SigTIC1 is the input-capture timer latched at the last pulse.
	SigTIC1 model.SignalID = "TIC1"
	// SigTCNT is the free-running timer register.
	SigTCNT model.SignalID = "TCNT"
	// SigADC is the brake-pressure analog-to-digital converter.
	SigADC model.SignalID = "ADC"
	// SigI is the major-cycle (frame) counter maintained by CALC.
	SigI model.SignalID = "i"
	// SigMsSlotNbr is the minor-cycle slot selector published by CLOCK.
	SigMsSlotNbr model.SignalID = "ms_slot_nbr"
	// SigMscnt counts scheduler milliseconds since start.
	SigMscnt model.SignalID = "mscnt"
	// SigPulscnt is the accumulated rotation pulse count.
	SigPulscnt model.SignalID = "pulscnt"
	// SigSlowSpeed flags tape speed below the slow threshold.
	SigSlowSpeed model.SignalID = "slow_speed"
	// SigStopped flags a standstill (no pulses for several frames).
	SigStopped model.SignalID = "stopped"
	// SigIsValue is the measured brake pressure in 0..1000 units.
	SigIsValue model.SignalID = "IsValue"
	// SigSetValue is the demanded brake pressure in 0..1000 units.
	SigSetValue model.SignalID = "SetValue"
	// SigOutValue is the regulated valve command in 0..1000 units.
	SigOutValue model.SignalID = "OutValue"
	// SigTOC2 is the output-compare register driving the valve PWM.
	SigTOC2 model.SignalID = "TOC2"
)

// Module names of the arrestment target (paper Fig. 2).
const (
	ModClock model.ModuleID = "CLOCK"
	ModDistS model.ModuleID = "DIST_S"
	ModPresS model.ModuleID = "PRES_S"
	ModCalc  model.ModuleID = "CALC"
	ModVReg  model.ModuleID = "V_REG"
	ModPresA model.ModuleID = "PRES_A"
)

// ControlPeriodMs is the major cycle: every module runs once per 10 ms
// frame, in the slot assigned by CLOCK's ms_slot_nbr.
const ControlPeriodMs = 10

// NewSystem builds the static description of the arrestment target:
// six modules, fourteen signals, one critical system output. Port
// orders match the paper's permeability tables (Table 1).
func NewSystem() *model.System {
	return model.NewBuilder("aircraft-arrestment").
		AddSignal(SigPACNT, model.Uint(16), model.AsSystemInput(),
			model.WithDoc("drum rotation pulse accumulator, 10 pulses per metre")).
		AddSignal(SigTIC1, model.Uint(16), model.AsSystemInput(),
			model.WithDoc("input-capture timer latched at the last drum pulse")).
		AddSignal(SigTCNT, model.Uint(16), model.AsSystemInput(),
			model.WithDoc("free-running timer register")).
		AddSignal(SigADC, model.Uint(10), model.AsSystemInput(),
			model.WithDoc("brake pressure ADC, 0..1023 over full scale")).
		AddSignal(SigI, model.Uint(16),
			model.WithDoc("frame counter: incremented once per major cycle by CALC")).
		AddSignal(SigMsSlotNbr, model.Uint(4),
			model.WithDoc("minor-cycle slot selector, 0..9")).
		AddSignal(SigMscnt, model.Uint(16),
			model.WithDoc("millisecond counter since system start")).
		AddSignal(SigPulscnt, model.Uint(16),
			model.WithDoc("accumulated rotation pulses: 0.1 m of tape each")).
		AddSignal(SigSlowSpeed, model.Bool(),
			model.WithDoc("tape speed below the slow-finish threshold")).
		AddSignal(SigStopped, model.Bool(),
			model.WithDoc("standstill: no drum pulses for several frames")).
		AddSignal(SigIsValue, model.Uint(10),
			model.WithDoc("measured brake pressure, 0..1000 units")).
		AddSignal(SigSetValue, model.Uint(10),
			model.WithDoc("demanded brake pressure, 0..1000 units")).
		AddSignal(SigOutValue, model.Uint(10),
			model.WithDoc("regulated valve command, 0..1000 units")).
		AddSignal(SigTOC2, model.Uint(8), model.AsSystemOutput(1.0),
			model.WithDoc("valve PWM compare register, 0..255")).
		AddModule(ModClock, model.In(SigI), model.Out(SigMsSlotNbr, SigMscnt)).
		AddModule(ModDistS, model.In(SigPACNT, SigTIC1, SigTCNT),
			model.Out(SigPulscnt, SigSlowSpeed, SigStopped)).
		AddModule(ModPresS, model.In(SigADC), model.Out(SigIsValue)).
		AddModule(ModCalc, model.In(SigI, SigMscnt, SigPulscnt, SigSlowSpeed, SigStopped),
			model.Out(SigI, SigSetValue)).
		AddModule(ModVReg, model.In(SigSetValue, SigIsValue), model.Out(SigOutValue)).
		AddModule(ModPresA, model.In(SigOutValue), model.Out(SigTOC2)).
		MustBuild()
}

var (
	sharedSysOnce sync.Once
	sharedSys     *model.System
)

// SharedSystem returns the process-wide arrestment system description.
// The description is configuration-independent and immutable after
// build, so every rig and every campaign plan can share one instance
// instead of rebuilding the wiring graph ~39 000 times per full-size
// campaign. Concurrent use is safe: all System methods are read-only.
func SharedSystem() *model.System {
	sharedSysOnce.Do(func() { sharedSys = NewSystem() })
	return sharedSys
}

// AllSignals returns every signal in declaration order.
func AllSignals() []model.SignalID {
	return []model.SignalID{
		SigPACNT, SigTIC1, SigTCNT, SigADC,
		SigI, SigMsSlotNbr, SigMscnt, SigPulscnt, SigSlowSpeed, SigStopped,
		SigIsValue, SigSetValue, SigOutValue, SigTOC2,
	}
}

// clock is the CLOCK module: it ticks the millisecond counter every
// slot and publishes the minor-cycle slot selector. Once per frame it
// re-synchronises its rotation phase against the frame counter i, so a
// corrupted frame counter rotates the whole schedule — the paper's
// P(i -> ms_slot_nbr) = 1.000 coupling.
type clock struct {
	msCount *memmap.Var // RAM: millisecond counter backing mscnt
	expI    *memmap.Var // RAM: frame counter value expected at the frame boundary
	k       *memmap.Var // RAM: own minor-cycle position, 0..9
	phase   *memmap.Var // RAM: schedule rotation, 0..9
	locSlot *memmap.Var // stack: slot number being published
	locTick *memmap.Var // stack: incremented millisecond count
}

func newClock(mem *memmap.Map) *clock {
	return &clock{
		msCount: mem.AllocRAM(string(ModClock), "msCount", model.Uint(16), 0),
		expI:    mem.AllocRAM(string(ModClock), "expI", model.Uint(16), 0),
		k:       mem.AllocRAM(string(ModClock), "k", model.Uint(4), 0),
		phase:   mem.AllocRAM(string(ModClock), "phase", model.Uint(4), 0),
		locSlot: mem.AllocStack(string(ModClock), "slot", model.Uint(4)),
		locTick: mem.AllocStack(string(ModClock), "tick", model.Uint(16)),
	}
}

func (c *clock) ModuleID() model.ModuleID { return ModClock }
func (c *clock) Reset()                   {}

func (c *clock) Step(e *model.Exec) {
	c.locTick.Set(c.msCount.Get() + 1)
	c.msCount.Set(c.locTick.Get())
	e.Out(2, c.msCount.Get())

	k := c.k.Get() % 10
	if k == 0 {
		// Frame boundary: CALC must have advanced the frame counter
		// exactly once since the last boundary. Any discrepancy shifts
		// the schedule phase for the coming frames.
		i := e.In(1)
		off := (i - c.expI.Get()) % 10
		c.phase.Set((off + 10) % 10)
		c.expI.Set(i + 1)
	}
	c.locSlot.Set((k + c.phase.Get()) % 10)
	e.Out(1, c.locSlot.Get())
	c.k.Set((k + 1) % 10)
}

// distSMaxDelta is the hardened DIST_S plausibility bound on pulses per
// frame: 16 m/s of tape per 10 ms would be 160 m/s — far above any
// engagement speed, so larger deltas are sensor or memory corruption.
const distSMaxDelta = 16

// distSStopRuns is how many consecutive zero-delta frames declare
// standstill: 5 frames (50 ms) without a pulse means v < 2 m/s.
const distSStopRuns = 5

// distS is the DIST_S module: it differentiates the rotation pulse
// accumulator into per-frame deltas, accumulates the distance count and
// derives the slow-speed and standstill flags. The timer inputs TIC1
// and TCNT are sampled for the (unused) pulse-period speed estimate —
// the paper found their permeability to be exactly zero.
type distS struct {
	hardened  bool
	prevPACNT *memmap.Var // RAM: previous accumulator sample
	accum     *memmap.Var // RAM: accumulated pulse count
	lastDelta *memmap.Var // RAM: last plausible per-frame delta
	zeroRuns  *memmap.Var // RAM: consecutive zero-delta frames
	locDelta  *memmap.Var // stack: per-invocation delta
}

func newDistS(mem *memmap.Map, hardened bool) *distS {
	return &distS{
		hardened:  hardened,
		prevPACNT: mem.AllocRAM(string(ModDistS), "prevPACNT", model.Uint(16), 0),
		accum:     mem.AllocRAM(string(ModDistS), "accum", model.Uint(16), 0),
		lastDelta: mem.AllocRAM(string(ModDistS), "lastDelta", model.Uint(8), 0),
		zeroRuns:  mem.AllocRAM(string(ModDistS), "zeroRuns", model.Uint(8), 0),
		locDelta:  mem.AllocStack(string(ModDistS), "delta", model.Uint(16)),
	}
}

func (d *distS) ModuleID() model.ModuleID { return ModDistS }
func (d *distS) Reset()                   {}

// setHardened reconfigures the plausibility check for a reused rig.
func (d *distS) setHardened(on bool) { d.hardened = on }

func (d *distS) Step(e *model.Exec) {
	cnt := e.In(1)
	_ = e.In(2) // TIC1: pulse-period capture, masked by the counting logic
	_ = e.In(3) // TCNT: timer reference, masked by the counting logic

	d.locDelta.Set((cnt - d.prevPACNT.Get()) & 0xFFFF)
	d.prevPACNT.Set(cnt)
	delta := d.locDelta.Get()
	if d.hardened && delta > distSMaxDelta {
		// Implausible jump: a real drum cannot gain this many pulses
		// in one frame. Substitute the last plausible delta.
		delta = d.lastDelta.Get()
	} else {
		d.lastDelta.Set(delta)
	}

	d.accum.Add(delta)
	// Standstill detection latches: below ~2 m/s a stray pulse can still
	// arrive many frames apart, and a flickering stopped flag would make
	// CALC slam the demand between zero and the braking profile.
	zr := d.zeroRuns.Get()
	switch {
	case zr >= distSStopRuns:
		// latched
	case delta == 0:
		zr++
		d.zeroRuns.Set(zr)
	default:
		d.zeroRuns.Set(0)
		zr = 0
	}

	e.Out(1, d.accum.Get())
	e.OutBool(2, delta < 2)
	e.OutBool(3, zr >= distSStopRuns)
}

// presS is the PRES_S module: it averages a 4-sample ADC burst and
// rescales it to 0..1000 pressure units, quantised to suppress ADC
// noise. The averaging and quantisation absorb most single-bit sensor
// errors — the paper measured P(ADC -> IsValue) as negligible.
type presS struct {
	locSum *memmap.Var // stack: burst accumulator
	locVal *memmap.Var // stack: scaled pressure value
}

func newPresS(mem *memmap.Map) *presS {
	return &presS{
		locSum: mem.AllocStack(string(ModPresS), "sum", model.Uint(16)),
		locVal: mem.AllocStack(string(ModPresS), "val", model.Uint(10)),
	}
}

func (p *presS) ModuleID() model.ModuleID { return ModPresS }
func (p *presS) Reset()                   {}

func (p *presS) Step(e *model.Exec) {
	p.locSum.Set(0)
	for k := 0; k < 4; k++ {
		p.locSum.Set(p.locSum.Get() + e.In(1))
	}
	v := p.locSum.Get() / 4 * 1000 / 1023
	v -= v % 4
	p.locVal.Set(v)
	e.Out(1, p.locVal.Get())
}

// CALC braking-profile constants.
const (
	// calcStopDistanceM is the planned stop distance: 250 m of profile
	// braking leaves margin to the 335 m runway end for the estimator
	// warm-up and the hydraulic lag.
	calcStopDistanceM = 250
	// calcVEstMax caps the speed estimate (0.1 m/s units).
	calcVEstMax = 65535
)

// calc is the CALC module: the braking-profile computer. It advances
// the frame counter, estimates tape speed from the pulse count and the
// millisecond counter, and converts the constant-deceleration profile
//
//	a = v_engage^2 / (2 * stop_distance)
//
// into a pressure set point, compensating estimated drag and the
// geometric gain of the tape payout.
type calc struct {
	massKg model.Word // aircraft mass dialled in by the operator

	prevPulscnt *memmap.Var // RAM: previous pulse count sample
	prevMscnt   *memmap.Var // RAM: previous millisecond sample
	vEst        *memmap.Var // RAM: filtered speed estimate, 0.1 m/s units
	vMax        *memmap.Var // RAM: engagement speed latch, 0.1 m/s units
	lastSet     *memmap.Var // RAM: last computed demand (held at slow speed)
	locDem      *memmap.Var // stack: demand being assembled
}

func newCalc(mem *memmap.Map, massKg model.Word) *calc {
	return &calc{
		massKg:      massKg,
		prevPulscnt: mem.AllocRAM(string(ModCalc), "prevPulscnt", model.Uint(16), 0),
		prevMscnt:   mem.AllocRAM(string(ModCalc), "prevMscnt", model.Uint(16), 0),
		vEst:        mem.AllocRAM(string(ModCalc), "vEst", model.Uint(16), 0),
		vMax:        mem.AllocRAM(string(ModCalc), "vMax", model.Uint(16), 0),
		lastSet:     mem.AllocRAM(string(ModCalc), "lastSet", model.Uint(10), 0),
		locDem:      mem.AllocStack(string(ModCalc), "dem", model.Uint(10)),
	}
}

func (c *calc) ModuleID() model.ModuleID { return ModCalc }
func (c *calc) Reset()                   {}

// setMass reconfigures the operator-dialled mass for a reused rig.
func (c *calc) setMass(m model.Word) { c.massKg = m }

func (c *calc) Step(e *model.Exec) {
	i := e.In(1)
	ms := e.In(2)
	pc := e.In(3)
	slow := e.InBool(4)
	stop := e.InBool(5)

	e.Out(1, i+1)

	dt := (ms - c.prevMscnt.Get()) & 0xFFFF
	c.prevMscnt.Set(ms)
	if dt < 1 {
		dt = 1
	}
	if dt > 50 {
		dt = 50
	}

	dp := (pc - c.prevPulscnt.Get()) & 0xFFFF
	c.prevPulscnt.Set(pc)

	// Speed estimate in 0.1 m/s units: dp pulses of 0.1 m over dt ms.
	inst := dp * 1000 / dt
	v := c.vEst.Get() + (inst-c.vEst.Get())/4
	if v < 0 {
		v = 0
	}
	if v > calcVEstMax {
		v = calcVEstMax
	}
	c.vEst.Set(v)
	if v > c.vMax.Get() {
		c.vMax.Set(v)
	}

	var dem model.Word
	switch {
	case stop:
		dem = 0
	case slow:
		dem = c.lastSet.Get()
	default:
		vm := c.vMax.Get()
		dEst := pc / 10 // metres of tape paid out
		// Constant-deceleration profile from the latched engagement
		// speed, in mm/s^2: vm^2 [0.01 m^2/s^2] / (2 * stop distance).
		aMilli := vm * vm * 5 / calcStopDistanceM
		// Brake force in N, net of estimated aero and rolling drag.
		force := c.massKg*aMilli/1000 - v*v/40 - c.massKg*196/1000
		if force < 0 {
			force = 0
		}
		// Geometric gain of the tape payout, in permille.
		g := dEst
		if g > 335 {
			g = 335
		}
		geom := 1000 + 250*g/335
		dem = force * 1000000 / (420000 * geom)
		if dem > 1000 {
			dem = 1000
		}
		c.lastSet.Set(dem)
	}

	if !stop {
		// Anti-stiction dither keyed to the frame counter keeps the
		// hydraulic valve moving.
		dem += i%5 - 2
		if dem < 0 {
			dem = 0
		}
		if dem > 1000 {
			dem = 1000
		}
	}
	c.locDem.Set(dem)
	e.Out(2, c.locDem.Get())
}

// vRegMaxSlew bounds the per-frame change of the valve command.
const vRegMaxSlew = 40

// vReg is the V_REG module: the pressure regulator. It combines the
// set point feed-forward with a clamped integrator and a proportional
// term on the pressure error, then slew-limits the valve command.
type vReg struct {
	integ   *memmap.Var // RAM: error integrator
	prevOut *memmap.Var // RAM: last command written
	locErr  *memmap.Var // stack: current pressure error
	locOut  *memmap.Var // stack: slewed command
}

const vRegIntegMax = 400

func newVReg(mem *memmap.Map) *vReg {
	return &vReg{
		integ:   mem.AllocRAM(string(ModVReg), "integ", model.Int(16), 0),
		prevOut: mem.AllocRAM(string(ModVReg), "prevOut", model.Uint(10), 0),
		locErr:  mem.AllocStack(string(ModVReg), "err", model.Int(16)),
		locOut:  mem.AllocStack(string(ModVReg), "out", model.Uint(10)),
	}
}

func (v *vReg) ModuleID() model.ModuleID { return ModVReg }
func (v *vReg) Reset()                   {}

func (v *vReg) Step(e *model.Exec) {
	set := e.In(1)
	is := e.In(2)

	v.locErr.Set(set - is)
	err := v.locErr.Get()

	integ := v.integ.Get() + err/8
	if integ > vRegIntegMax {
		integ = vRegIntegMax
	}
	if integ < -vRegIntegMax {
		integ = -vRegIntegMax
	}
	v.integ.Set(integ)

	// The feed-forward does almost all the work (the valve duty maps
	// linearly to steady-state pressure); the integrator and the
	// proportional term only trim quantisation and sensor noise.
	cmd := set + integ/32 + err/16
	if cmd < 0 {
		cmd = 0
	}
	if cmd > 1000 {
		cmd = 1000
	}

	prev := v.prevOut.Get()
	d := cmd - prev
	if d > vRegMaxSlew {
		d = vRegMaxSlew
	}
	if d < -vRegMaxSlew {
		d = -vRegMaxSlew
	}
	v.locOut.Set(prev + d)
	out := v.locOut.Get()
	v.prevOut.Set(out)
	e.Out(1, out)
}

// presA is the PRES_A module: it rescales the valve command to the
// 8-bit PWM compare register.
type presA struct {
	locDuty *memmap.Var // stack: scaled duty cycle
}

func newPresA(mem *memmap.Map) *presA {
	return &presA{
		locDuty: mem.AllocStack(string(ModPresA), "duty", model.Uint(8)),
	}
}

func (p *presA) ModuleID() model.ModuleID { return ModPresA }
func (p *presA) Reset()                   {}

func (p *presA) Step(e *model.Exec) {
	p.locDuty.Set(e.In(1) * 255 / 1000)
	e.Out(1, p.locDuty.Get())
}
