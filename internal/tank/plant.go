// Package tank is a second, independent target system — the paper's
// stated future work is "applying the analysis framework on alternate
// target systems in order to validate the generalized applicability".
// It is a tank level controller: five modules hold the level of a
// buffer tank at a setpoint against a varying inflow, by modulating an
// outflow valve, and raise an alarm output when the level leaves its
// safe band. Unlike the arrestment target it has TWO system outputs
// with different criticalities (the valve command and the alarm line),
// so impact and criticality genuinely diverge at runtime (paper
// Section 8).
package tank

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/physics"
)

// PlantParams configures the physical tank.
type PlantParams struct {
	// AreaM2 is the tank cross-section.
	AreaM2 float64
	// MaxLevelM is the physical tank height.
	MaxLevelM float64
	// InitialLevelM is the level at start.
	InitialLevelM float64
	// ValveCoeff relates valve opening (0..1) and sqrt(level) to
	// outflow in m³/s.
	ValveCoeff float64
	// InflowBase and InflowVar parameterize the disturbance inflow in
	// m³/s: base plus a slow seeded random walk within ±InflowVar.
	InflowBase, InflowVar float64
	// PulsePerM3 is the inflow meter resolution (pulses per m³).
	PulsePerM3 float64
	// LevelNoiseLSB is the half-range of uniform level-sensor noise.
	LevelNoiseLSB int
	// Seed drives sensor noise and the inflow walk.
	Seed int64
}

// DefaultPlantParams returns a tank that the default controller holds
// comfortably in band for every test case.
func DefaultPlantParams(inflowBase float64, seed int64) PlantParams {
	return PlantParams{
		AreaM2:        4,
		MaxLevelM:     10,
		InitialLevelM: 5,
		ValveCoeff:    0.08,
		InflowBase:    inflowBase,
		InflowVar:     0.05,
		PulsePerM3:    1000,
		LevelNoiseLSB: 1,
		Seed:          seed,
	}
}

// Validate reports whether the parameters are usable.
func (p PlantParams) Validate() error {
	switch {
	case p.AreaM2 <= 0:
		return fmt.Errorf("tank: AreaM2 %v must be positive", p.AreaM2)
	case p.MaxLevelM <= 0:
		return fmt.Errorf("tank: MaxLevelM %v must be positive", p.MaxLevelM)
	case p.InitialLevelM < 0 || p.InitialLevelM > p.MaxLevelM:
		return fmt.Errorf("tank: InitialLevelM %v outside [0, %v]", p.InitialLevelM, p.MaxLevelM)
	case p.ValveCoeff <= 0:
		return fmt.Errorf("tank: ValveCoeff %v must be positive", p.ValveCoeff)
	case p.InflowBase < 0 || p.InflowVar < 0:
		return fmt.Errorf("tank: negative inflow parameters")
	case p.PulsePerM3 <= 0:
		return fmt.Errorf("tank: PulsePerM3 %v must be positive", p.PulsePerM3)
	}
	return nil
}

// Plant simulates the tank.
type Plant struct {
	p     PlantParams
	noise physics.Noise
	state
}

// state is the plant's dynamic state apart from the noise generator.
// Every field is a plain value, so two states compare with ==.
type state struct {
	level  float64 // m
	valve  float64 // 0..1 commanded opening (applied directly; valve is fast)
	inflow float64 // current inflow, m³/s

	pulses     float64 // accumulated inflow volume in pulses
	levelNoise int

	minLevel, maxLevel float64
}

// NewPlant creates a tank plant; it panics on invalid parameters.
func NewPlant(p PlantParams) *Plant {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Plant{
		p:     p,
		noise: physics.NewNoise(p.Seed),
		state: state{
			level:    p.InitialLevelM,
			inflow:   p.InflowBase,
			minLevel: p.InitialLevelM,
			maxLevel: p.InitialLevelM,
		},
	}
}

// Snapshot is a saved copy of a plant's dynamic state plus a mark of
// its noise position. It is immutable once taken and safe to restore
// from concurrently.
type Snapshot struct {
	state state
	noise physics.Mark
}

// Noise returns the snapshot's noise position.
func (s *Snapshot) Noise() physics.Mark { return s.noise }

// Save returns a snapshot of the plant's dynamic state.
func (pl *Plant) Save() *Snapshot {
	return &Snapshot{state: pl.state, noise: pl.noise.Mark()}
}

// Restore puts the plant into a snapshot's state, noise generator
// position included, without allocating. The snapshot must come from a
// plant with the same parameters.
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

// Params returns the configuration.
func (pl *Plant) Params() PlantParams { return pl.p }

// SetValve applies the actuator register (0..255).
func (pl *Plant) SetValve(v model.Word) {
	if v < 0 {
		v = 0
	}
	if v > 255 {
		v = 255
	}
	pl.valve = float64(v) / 255
}

// StepMs advances the simulation by dtMs milliseconds.
func (pl *Plant) StepMs(dtMs int64) {
	const dt = 0.001
	for i := int64(0); i < dtMs; i++ {
		// Slow inflow random walk, clamped to the disturbance band.
		pl.inflow += (pl.noise.Float64() - 0.5) * 0.002
		lo, hi := pl.p.InflowBase-pl.p.InflowVar, pl.p.InflowBase+pl.p.InflowVar
		if pl.inflow < lo {
			pl.inflow = lo
		}
		if pl.inflow > hi {
			pl.inflow = hi
		}

		out := pl.p.ValveCoeff * pl.valve * math.Sqrt(math.Max(pl.level, 0))
		pl.level += (pl.inflow - out) / pl.p.AreaM2 * dt
		if pl.level < 0 {
			pl.level = 0
		}
		if pl.level > pl.p.MaxLevelM {
			pl.level = pl.p.MaxLevelM
		}
		if pl.level < pl.minLevel {
			pl.minLevel = pl.level
		}
		if pl.level > pl.maxLevel {
			pl.maxLevel = pl.level
		}
		pl.pulses += pl.inflow * dt * pl.p.PulsePerM3
	}
	pl.levelNoise = pl.noise.Intn(2*pl.p.LevelNoiseLSB+1) - pl.p.LevelNoiseLSB
}

// LevelADC returns the 10-bit level sensor sample.
func (pl *Plant) LevelADC() model.Word {
	raw := int64(pl.level/pl.p.MaxLevelM*1023) + int64(pl.levelNoise)
	if raw < 0 {
		raw = 0
	}
	if raw > 1023 {
		raw = 1023
	}
	return model.Word(raw)
}

// FlowCount returns the 16-bit inflow pulse counter (wraps).
func (pl *Plant) FlowCount() model.Word {
	return model.Word(int64(pl.pulses)) & 0xFFFF
}

// LevelM returns the true level in meters.
func (pl *Plant) LevelM() float64 { return pl.level }

// MinLevelM and MaxLevelM return the observed extremes.
func (pl *Plant) MinLevelM() float64 { return pl.minLevel }

// MaxLevelM returns the highest level seen.
func (pl *Plant) MaxLevelM() float64 { return pl.maxLevel }
