// Package physics simulates the plant of the paper's target: an aircraft
// engaging a BAK-12-class rotary-friction arrestment system (MIL-A-38202C)
// on a short runway. The real rig — cable, tape drums, hydraulically
// modulated friction brakes — is proprietary hardware we cannot run, so we
// substitute a deterministic discrete-time simulation exposing exactly the
// observable interface the target software has: a rotation pulse counter
// (PACNT), an input-capture timestamp of the last pulse (TIC1), a
// free-running timer (TCNT), a pressure-sensor ADC, and a valve-command
// register (TOC2). See DESIGN.md §5 for the substitution argument.
//
// Dynamics, per simulation step:
//
//	target pressure   Pt = duty/255 · PMax
//	actual pressure   dP/dt = (Pt − P)/τ            (hydraulic lag)
//	brake force       Fb = P · BrakeGain · geom(x)   (tape-payout geometry)
//	drag force        Fd = DragCoeff·v² + RollCoeff·m·g
//	deceleration      a = (Fb + Fd)/m, v̇ = −a, ẋ = v
//
// Sensor noise is drawn from a seeded generator once per step, so golden
// runs and injection runs that execute the same number of steps observe
// identical noise — a prerequisite for golden-run comparison.
package physics

import (
	"fmt"
	"math"

	"repro/internal/model"
)

// StandardGravity is g in m/s².
const StandardGravity = 9.80665

// Params configures one arrestment scenario.
type Params struct {
	// MassKg is the aircraft mass (the operator dials this into the real
	// system before an engagement).
	MassKg float64
	// EngageVelocityMps is the velocity at cable engagement.
	EngageVelocityMps float64

	// PMax is full-scale brake pressure in pressure units (the software
	// works in 0..1000 "pressure units"; the plant normalizes to 0..1).
	PMax float64
	// BrakeGain converts pressure (0..1) to braking force in newtons at
	// x = 0.
	BrakeGain float64
	// GeomGain models tape-payout geometry: effective force multiplier
	// grows linearly to (1+GeomGain) at RunwayLengthM.
	GeomGain float64
	// TauMs is the hydraulic first-order time constant in milliseconds.
	TauMs float64
	// DragCoeff is the aerodynamic drag coefficient (N per (m/s)²).
	DragCoeff float64
	// RollCoeff is rolling-resistance force as a fraction of weight.
	RollCoeff float64

	// MetersPerPulse is the cable travel per rotation-sensor pulse.
	MetersPerPulse float64
	// TimerTickUs is the period of the 16-bit free-running timer in
	// microseconds (TCNT/TIC1 resolution).
	TimerTickUs float64
	// ADCNoiseLSB is the half-range of uniform ADC noise in LSBs.
	ADCNoiseLSB int

	// RunwayLengthM is the distance at which geometry tops out and the
	// specification's stopping-distance limit applies (335 m).
	RunwayLengthM float64

	// Seed seeds the sensor-noise generator.
	Seed int64
}

// DefaultParams returns plant constants tuned so that every test case in
// the paper's 5×5 mass/velocity grid arrests within specification under
// fault-free control.
func DefaultParams(massKg, engageVelocityMps float64, seed int64) Params {
	return Params{
		MassKg:            massKg,
		EngageVelocityMps: engageVelocityMps,
		PMax:              1.0,
		BrakeGain:         420_000, // N at full pressure, x = 0
		GeomGain:          0.25,
		TauMs:             250,
		DragCoeff:         2.5,
		RollCoeff:         0.02,
		MetersPerPulse:    0.1,
		TimerTickUs:       100, // 0.1 ms timer tick
		ADCNoiseLSB:       1,
		RunwayLengthM:     335,
		Seed:              seed,
	}
}

// Validate reports whether the parameters are physically usable.
func (p Params) Validate() error {
	switch {
	case p.MassKg <= 0:
		return fmt.Errorf("physics: MassKg %v must be positive", p.MassKg)
	case p.EngageVelocityMps <= 0:
		return fmt.Errorf("physics: EngageVelocityMps %v must be positive", p.EngageVelocityMps)
	case p.PMax <= 0 || p.BrakeGain <= 0:
		return fmt.Errorf("physics: PMax/BrakeGain must be positive")
	case p.TauMs <= 0:
		return fmt.Errorf("physics: TauMs %v must be positive", p.TauMs)
	case p.MetersPerPulse <= 0:
		return fmt.Errorf("physics: MetersPerPulse %v must be positive", p.MetersPerPulse)
	case p.TimerTickUs <= 0:
		return fmt.Errorf("physics: TimerTickUs %v must be positive", p.TimerTickUs)
	case p.RunwayLengthM <= 0:
		return fmt.Errorf("physics: RunwayLengthM %v must be positive", p.RunwayLengthM)
	}
	return nil
}

// Plant is the simulated arrestment rig plus aircraft. Create with New.
type Plant struct {
	p     Params
	noise Noise
	state
}

// state is the plant's dynamic state apart from the noise generator.
// Every field is a plain value, so two states compare with ==.
type state struct {
	timeS    float64
	x        float64 // distance traveled, m
	v        float64 // velocity, m/s
	pressure float64 // actual brake pressure, 0..1
	duty     float64 // commanded valve duty, 0..1

	adcNoise int // noise for the current step's ADC sample

	lastPulseCount int64
	lastPulseTick  int64

	curAccel  float64 // current deceleration, m/s²; nothing reads it, but Matches compares the whole state
	maxRetard float64 // max retardation seen, in g
	maxForce  float64 // max retardation force seen, N
}

// New creates a plant. It panics on invalid parameters (plants are
// constructed from validated test-case definitions).
func New(p Params) *Plant {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Plant{p: p, noise: NewNoise(p.Seed), state: state{v: p.EngageVelocityMps}}
}

// Params returns the plant configuration.
func (pl *Plant) Params() Params { return pl.p }

// Reset re-initializes the plant for a new scenario, reusing the
// allocated noise generator. A reset plant is indistinguishable from
// New(p): the generator restarts p.Seed's sequence, so the noise
// replays exactly — the precondition for golden-run comparison across
// pooled rigs. Seeding is deferred to the first draw, so a reset
// followed by Restore never seeds.
func (pl *Plant) Reset(p Params) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	*pl = Plant{p: p, noise: pl.noise, state: state{v: p.EngageVelocityMps}}
	pl.noise.Seed(p.Seed)
}

// Snapshot is a saved copy of a plant's dynamic state plus a mark of
// its noise position. It is immutable once taken and safe to restore
// from concurrently.
type Snapshot struct {
	state state
	noise Mark
}

// Noise returns the snapshot's noise position.
func (s *Snapshot) Noise() Mark { return s.noise }

// Save returns a snapshot of the plant's dynamic state.
func (pl *Plant) Save() *Snapshot {
	return &Snapshot{state: pl.state, noise: pl.noise.Mark()}
}

// Restore puts the plant into a snapshot's state, noise generator
// position included, without allocating. The snapshot must come from
// a plant with the same Params.
func (pl *Plant) Restore(s *Snapshot) {
	pl.state = s.state
	pl.noise.Seek(s.noise)
}

// Matches reports whether the plant's dynamic state equals the
// snapshot's. The noise generator is not compared: StepMs makes the
// same generator calls whatever the plant state, so two plants that
// started from one generator state and have taken the same number of
// steps are at the same position in the sequence.
func (pl *Plant) Matches(s *Snapshot) bool { return pl.state == s.state }

// SetValveDuty applies the actuator command from the TOC2 register
// (0..255, clamped).
func (pl *Plant) SetValveDuty(duty8 model.Word) {
	if duty8 < 0 {
		duty8 = 0
	}
	if duty8 > 255 {
		duty8 = 255
	}
	pl.duty = float64(duty8) / 255
}

// StepMs advances the simulation by dtMs milliseconds using sub-ms Euler
// integration, then refreshes the sensor sample for this step.
func (pl *Plant) StepMs(dtMs int64) {
	const subDt = 0.001 // 1 ms in seconds
	for i := int64(0); i < dtMs; i++ {
		pl.stepOnce(subDt)
	}
	pl.adcNoise = pl.noise.Intn(2*pl.p.ADCNoiseLSB+1) - pl.p.ADCNoiseLSB
}

func (pl *Plant) stepOnce(dt float64) {
	// Hydraulic lag toward commanded pressure.
	tau := pl.p.TauMs / 1000
	pl.pressure += (pl.duty*pl.p.PMax - pl.pressure) * dt / tau
	if pl.pressure < 0 {
		pl.pressure = 0
	}
	if pl.pressure > pl.p.PMax {
		pl.pressure = pl.p.PMax
	}

	if pl.v <= 0 {
		pl.v = 0
		pl.timeS += dt
		return
	}

	geom := 1 + pl.p.GeomGain*math.Min(pl.x/pl.p.RunwayLengthM, 1)
	fBrake := pl.pressure * pl.p.BrakeGain * geom
	fDrag := pl.p.DragCoeff*pl.v*pl.v + pl.p.RollCoeff*pl.p.MassKg*StandardGravity
	force := fBrake + fDrag
	a := force / pl.p.MassKg

	pl.curAccel = a
	if r := a / StandardGravity; r > pl.maxRetard {
		pl.maxRetard = r
	}
	if force > pl.maxForce {
		pl.maxForce = force
	}

	pl.x += pl.v * dt
	pl.v -= a * dt
	if pl.v < 0 {
		pl.v = 0
	}
	pl.timeS += dt

	// Rotation pulses: one per MetersPerPulse of cable travel.
	if n := int64(pl.x / pl.p.MetersPerPulse); n > pl.lastPulseCount {
		pl.lastPulseCount = n
		pl.lastPulseTick = pl.timerTick()
	}
}

func (pl *Plant) timerTick() int64 {
	return int64(pl.timeS * 1e6 / pl.p.TimerTickUs)
}

// PACNT returns the 16-bit hardware pulse counter (wraps).
func (pl *Plant) PACNT() model.Word {
	return model.Word(pl.lastPulseCount) & 0xFFFF
}

// TIC1 returns the 16-bit input-capture timestamp of the last pulse.
func (pl *Plant) TIC1() model.Word {
	return model.Word(pl.lastPulseTick) & 0xFFFF
}

// TCNT returns the 16-bit free-running timer.
func (pl *Plant) TCNT() model.Word {
	return model.Word(pl.timerTick()) & 0xFFFF
}

// ADC returns the 10-bit pressure-sensor sample with this step's noise.
func (pl *Plant) ADC() model.Word {
	raw := int64(pl.pressure/pl.p.PMax*1023) + int64(pl.adcNoise)
	if raw < 0 {
		raw = 0
	}
	if raw > 1023 {
		raw = 1023
	}
	return model.Word(raw)
}

// Distance returns the distance traveled in meters.
func (pl *Plant) Distance() float64 { return pl.x }

// Velocity returns the current velocity in m/s.
func (pl *Plant) Velocity() float64 { return pl.v }

// TimeS returns the elapsed plant time in seconds.
func (pl *Plant) TimeS() float64 { return pl.timeS }

// MaxRetardationG returns the peak deceleration seen so far, in g.
func (pl *Plant) MaxRetardationG() float64 { return pl.maxRetard }

// MaxForceN returns the peak retardation force seen so far, in newtons.
func (pl *Plant) MaxForceN() float64 { return pl.maxForce }

// Stopped reports whether the aircraft has come to rest.
func (pl *Plant) Stopped() bool { return pl.v <= 0 }
