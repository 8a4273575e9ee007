package tank

import (
	"sync"

	"repro/internal/memmap"
	"repro/internal/model"
)

// Signal names of the tank target.
const (
	SigLvlADC model.SignalID = "LVL_ADC"
	SigFlwCnt model.SignalID = "FLW_CNT"
	SigLevel  model.SignalID = "level"
	SigTrend  model.SignalID = "trend"
	SigInflow model.SignalID = "inflow"
	SigCmd    model.SignalID = "cmd"
	SigValve  model.SignalID = "VALVE"
	SigAlarm  model.SignalID = "ALARM"
)

// Module names of the tank target.
const (
	ModSensL model.ModuleID = "SENS_L"
	ModSensF model.ModuleID = "SENS_F"
	ModCtrl  model.ModuleID = "CTRL"
	ModAlarm model.ModuleID = "ALARM_M"
	ModAct   model.ModuleID = "ACT"
)

// Alarm codes carried by the ALARM output.
const (
	AlarmNone model.Word = 0
	AlarmLow  model.Word = 1
	AlarmHigh model.Word = 2
)

var sharedSystem = sync.OnceValue(NewSystem)

// SharedSystem returns the process-wide tank system description. It is
// built once: the description is configuration-independent and
// immutable, and every System method is read-only, so all rigs and
// campaigns share one instance.
func SharedSystem() *model.System { return sharedSystem() }

// NewSystem builds the static description: five modules, eight signals,
// two system outputs with different criticalities — the multi-output
// shape the arrestment target lacks.
func NewSystem() *model.System {
	return model.NewBuilder("tank-level").
		AddSignal(SigLvlADC, model.Uint(10), model.AsSystemInput(),
			model.WithDoc("level sensor analog-to-digital converter")).
		AddSignal(SigFlwCnt, model.Uint(16), model.AsSystemInput(),
			model.WithDoc("inflow meter pulse counter")).
		AddSignal(SigLevel, model.Uint(10),
			model.WithDoc("filtered level, 0..1000 units over the tank height")).
		AddSignal(SigTrend, model.Int(8),
			model.WithDoc("level slope per control period")).
		AddSignal(SigInflow, model.Uint(8),
			model.WithDoc("inflow pulses per measurement window")).
		AddSignal(SigCmd, model.Uint(8),
			model.WithDoc("regulator valve demand")).
		AddSignal(SigValve, model.Uint(8), model.AsSystemOutput(1.0),
			model.WithDoc("valve actuator register")).
		AddSignal(SigAlarm, model.Uint(2), model.AsSystemOutput(0.25),
			model.WithDoc("alarm line: 0 none, 1 low, 2 high")).
		AddModule(ModSensL, model.In(SigLvlADC), model.Out(SigLevel, SigTrend)).
		AddModule(ModSensF, model.In(SigFlwCnt), model.Out(SigInflow)).
		AddModule(ModCtrl, model.In(SigLevel, SigTrend, SigInflow), model.Out(SigCmd)).
		AddModule(ModAlarm, model.In(SigLevel, SigTrend), model.Out(SigAlarm)).
		AddModule(ModAct, model.In(SigCmd), model.Out(SigValve)).
		MustBuild()
}

// AllSignals returns every signal in declaration order.
func AllSignals() []model.SignalID {
	return []model.SignalID{
		SigLvlADC, SigFlwCnt, SigLevel, SigTrend, SigInflow,
		SigCmd, SigValve, SigAlarm,
	}
}

// sensL filters the level ADC (average of 4 burst samples, coarse
// quantization) and differentiates it into a trend.
type sensL struct {
	prevLevel *memmap.Var // RAM: previous filtered level
	locSum    *memmap.Var // stack: burst accumulator
}

func newSensL(mem *memmap.Map) *sensL {
	return &sensL{
		prevLevel: mem.AllocRAM(string(ModSensL), "prevLevel", model.Uint(10), 500),
		locSum:    mem.AllocStack(string(ModSensL), "sum", model.Uint(16)),
	}
}

func (s *sensL) ModuleID() model.ModuleID { return ModSensL }
func (s *sensL) Reset()                   {}

func (s *sensL) Step(e *model.Exec) {
	s.locSum.Set(0)
	for k := 0; k < 4; k++ {
		s.locSum.Set(s.locSum.Get() + e.In(1))
	}
	level := s.locSum.Get() / 4 * 1000 / 1023
	level -= level % 4

	prev := s.prevLevel.Get()
	trend := level - prev
	if trend > 127 {
		trend = 127
	}
	if trend < -128 {
		trend = -128
	}
	s.prevLevel.Set(level)
	e.Out(1, level)
	e.Out(2, trend)
}

// sensF turns the inflow pulse counter into pulses per measurement
// window.
type sensF struct {
	winLen   model.Word
	prevCnt  *memmap.Var // RAM: previous counter sample
	winCount *memmap.Var // RAM: pulses in the current window
	winPos   *memmap.Var // RAM: window position
	lastWin  *memmap.Var // RAM: last complete window
	locDelta *memmap.Var // stack: per-invocation delta
}

func newSensF(mem *memmap.Map) *sensF {
	return &sensF{
		winLen:   16,
		prevCnt:  mem.AllocRAM(string(ModSensF), "prevCnt", model.Uint(16), 0),
		winCount: mem.AllocRAM(string(ModSensF), "winCount", model.Uint(8), 0),
		winPos:   mem.AllocRAM(string(ModSensF), "winPos", model.Uint(8), 0),
		lastWin:  mem.AllocRAM(string(ModSensF), "lastWin", model.Uint(8), 0),
		locDelta: mem.AllocStack(string(ModSensF), "delta", model.Uint(8)),
	}
}

func (s *sensF) ModuleID() model.ModuleID { return ModSensF }
func (s *sensF) Reset()                   {}

func (s *sensF) Step(e *model.Exec) {
	cnt := e.In(1)
	d := (cnt - s.prevCnt.Get()) & 0xFFFF
	if d > 200 {
		d = 200 // implausible: meter glitch
	}
	s.locDelta.Set(d)
	s.prevCnt.Set(cnt)
	s.winCount.Add(s.locDelta.Get())
	if pos := s.winPos.Add(1); pos >= s.winLen {
		s.lastWin.Set(s.winCount.Get())
		s.winCount.Set(0)
		s.winPos.Set(0)
	}
	e.Out(1, s.lastWin.Get())
}

// ctrl is the level regulator: proportional + integral on the setpoint
// error, derivative damping from the trend, feed-forward from the
// measured inflow.
type ctrl struct {
	setpoint model.Word // level units
	ffGain   model.Word // cmd units per inflow pulse/window

	integ  *memmap.Var // RAM: integrator
	locErr *memmap.Var // stack: current error
	locCmd *memmap.Var // stack: computed command
}

const ctrlIntegMax = 2000

func newCtrl(mem *memmap.Map, setpoint model.Word) *ctrl {
	return &ctrl{
		setpoint: setpoint,
		ffGain:   9,
		integ:    mem.AllocRAM(string(ModCtrl), "integ", model.Int(16), 0),
		locErr:   mem.AllocStack(string(ModCtrl), "err", model.Int(16)),
		locCmd:   mem.AllocStack(string(ModCtrl), "cmd", model.Uint(8)),
	}
}

func (c *ctrl) ModuleID() model.ModuleID { return ModCtrl }
func (c *ctrl) Reset()                   {}

func (c *ctrl) Step(e *model.Exec) {
	level := e.In(1)
	trend := e.In(2)
	inflow := e.In(3)

	c.locErr.Set(level - c.setpoint)
	err := c.locErr.Get()

	integ := c.integ.Get() + err/8
	if integ > ctrlIntegMax {
		integ = ctrlIntegMax
	}
	if integ < -ctrlIntegMax {
		integ = -ctrlIntegMax
	}
	c.integ.Set(integ)

	cmd := c.ffGain*inflow + err*2 + integ/32 + trend*4
	if cmd < 0 {
		cmd = 0
	}
	if cmd > 255 {
		cmd = 255
	}
	c.locCmd.Set(cmd)
	e.Out(1, c.locCmd.Get())
}

// alarmM raises the alarm line with hysteresis, using the trend to
// latch slightly earlier when the level is moving toward a bound.
type alarmM struct {
	highOn, highOff model.Word
	lowOn, lowOff   model.Word
	state           *memmap.Var // RAM: current alarm code
}

func newAlarmM(mem *memmap.Map) *alarmM {
	return &alarmM{
		highOn: 700, highOff: 660,
		lowOn: 300, lowOff: 340,
		state: mem.AllocRAM(string(ModAlarm), "state", model.Uint(2), 0),
	}
}

func (a *alarmM) ModuleID() model.ModuleID { return ModAlarm }
func (a *alarmM) Reset()                   {}

func (a *alarmM) Step(e *model.Exec) {
	level := e.In(1)
	trend := e.In(2)
	// Predictive margin: look one window ahead along the trend.
	pred := level + trend*8

	state := a.state.Get()
	switch state {
	case AlarmHigh:
		if level < a.highOff {
			state = AlarmNone
		}
	case AlarmLow:
		if level > a.lowOff {
			state = AlarmNone
		}
	default:
		switch {
		case level >= a.highOn || pred >= a.highOn+40:
			state = AlarmHigh
		case level <= a.lowOn || pred <= a.lowOn-40:
			state = AlarmLow
		}
	}
	a.state.Set(state)
	e.Out(1, state)
}

// act drives the valve register with a slew limit.
type act struct {
	maxSlew model.Word
	prev    *memmap.Var // RAM: last command written
	locOut  *memmap.Var // stack: slewed value
}

func newAct(mem *memmap.Map) *act {
	return &act{
		maxSlew: 8,
		prev:    mem.AllocRAM(string(ModAct), "prev", model.Uint(8), 0),
		locOut:  mem.AllocStack(string(ModAct), "out", model.Uint(8)),
	}
}

func (a *act) ModuleID() model.ModuleID { return ModAct }
func (a *act) Reset()                   {}

func (a *act) Step(e *model.Exec) {
	cmd := e.In(1)
	prev := a.prev.Get()
	d := cmd - prev
	if d > a.maxSlew {
		d = a.maxSlew
	}
	if d < -a.maxSlew {
		d = -a.maxSlew
	}
	a.locOut.Set(prev + d)
	v := a.locOut.Get()
	a.prev.Set(v)
	e.Out(1, v)
}
