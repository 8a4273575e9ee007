package tank

import (
	"fmt"

	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/sched"
)

// ControlPeriodMs is the control period: every module runs once per
// 10 ms major cycle.
const ControlPeriodMs = 10

// Config is one tank scenario.
type Config struct {
	// InflowBase is the disturbance inflow in m³/s.
	InflowBase float64
	// SetpointUnits is the level setpoint in 0..1000 units.
	SetpointUnits model.Word
	// Seed drives plant noise.
	Seed int64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.InflowBase <= 0 {
		return fmt.Errorf("tank: InflowBase %v must be positive", c.InflowBase)
	}
	if c.SetpointUnits < 100 || c.SetpointUnits > 900 {
		return fmt.Errorf("tank: SetpointUnits %d outside the controllable band", c.SetpointUnits)
	}
	return nil
}

// TestCase is one workload entry.
type TestCase struct {
	ID            int
	InflowBase    float64
	SetpointUnits model.Word
}

// Config returns the scenario configuration.
func (tc TestCase) Config(seed int64) Config {
	return Config{InflowBase: tc.InflowBase, SetpointUnits: tc.SetpointUnits, Seed: seed}
}

// String implements fmt.Stringer.
func (tc TestCase) String() string {
	return fmt.Sprintf("tank case %d: inflow %.2f m3/s, setpoint %d", tc.ID, tc.InflowBase, tc.SetpointUnits)
}

// DefaultTestCases returns the 3x2 workload grid.
func DefaultTestCases() []TestCase {
	inflows := []float64{0.06, 0.09, 0.12}
	setpoints := []model.Word{450, 550}
	var out []TestCase
	id := 1
	for _, q := range inflows {
		for _, sp := range setpoints {
			out = append(out, TestCase{ID: id, InflowBase: q, SetpointUnits: sp})
			id++
		}
	}
	return out
}

// Rig is an assembled tank target.
type Rig struct {
	Cfg   Config
	Sys   *model.System
	Bus   *model.Bus
	Mem   *memmap.Map
	Plant *Plant
	Sched *sched.Scheduler
}

// NewRig assembles a tank rig for one scenario.
func NewRig(cfg Config) (*Rig, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sys := SharedSystem()
	bus := model.NewBus(sys)
	mem := &memmap.Map{}
	plant := NewPlant(DefaultPlantParams(cfg.InflowBase, cfg.Seed))

	table := sched.Table{
		SlotMs: 1,
		Slots: [][]model.ModuleID{
			1: {ModSensL},
			2: {ModSensF},
			3: {ModCtrl},
			4: {ModAlarm},
			5: {ModAct},
			9: {},
		},
	}
	s, err := sched.New(bus, table)
	if err != nil {
		return nil, err
	}
	mods := []model.Runnable{
		newSensL(mem),
		newSensF(mem),
		newCtrl(mem, cfg.SetpointUnits),
		newAlarmM(mem),
		newAct(mem),
	}
	for _, m := range mods {
		if err := s.Register(m); err != nil {
			return nil, err
		}
	}

	r := &Rig{Cfg: cfg, Sys: sys, Bus: bus, Mem: mem, Plant: plant, Sched: s}
	idx := func(id model.SignalID) int {
		i, _ := sys.SignalIndex(id)
		return i
	}
	iLvlADC, iFlwCnt, iValve := idx(SigLvlADC), idx(SigFlwCnt), idx(SigValve)
	s.OnPreSlot(func(nowMs int64) {
		r.Plant.StepMs(1)
		bus.PokeIdx(iLvlADC, r.Plant.LevelADC())
		bus.PokeIdx(iFlwCnt, r.Plant.FlowCount())
	})
	s.OnPostSlot(func(nowMs int64) {
		r.Plant.SetValve(bus.PeekIdx(iValve))
	})
	return r, nil
}

// RunFor runs the rig for durationMs of scheduler time.
func (r *Rig) RunFor(durationMs int64) error { return r.Sched.RunFor(durationMs) }

// Outcome classifies a finished run against the tank specification.
type Outcome struct {
	// InBand reports whether the level stayed within 1..9 m throughout.
	InBand bool
	// MinLevelM and MaxLevelM are the observed extremes.
	MinLevelM, MaxLevelM float64
	// FalseAlarm reports an alarm raised while the level was in the
	// comfortable band at run end.
	FalseAlarm bool
}

// Failed reports whether the run violated the specification.
func (o Outcome) Failed() bool { return !o.InBand }

// Classify evaluates the rig after a run.
func (r *Rig) Classify() Outcome {
	o := Outcome{
		MinLevelM: r.Plant.MinLevelM(),
		MaxLevelM: r.Plant.MaxLevelM(),
	}
	o.InBand = o.MinLevelM > 1.0 && o.MaxLevelM < 9.0
	alarm := r.Bus.Peek(SigAlarm)
	frac := r.Plant.LevelM() / r.Plant.Params().MaxLevelM * 1000
	o.FalseAlarm = alarm != AlarmNone && frac > 360 && frac < 640
	return o
}
