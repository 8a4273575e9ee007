package sut

import (
	_ "embed"
	"fmt"
	"slices"

	"repro/internal/ea"
	"repro/internal/erm"
	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/sched"
)

//go:embed multiout.json
var multioutJSON []byte

func init() {
	if _, err := RegisterModelJSON(multioutJSON); err != nil {
		panic(err)
	}
}

// genericTarget is an interpreter-backed target built from a JSON system
// description: every module runs the same low-pass dataflow kernel over
// its declared ports, system inputs are driven by a seeded random walk,
// and assertion bounds are synthesized from signal widths. The dynamics
// are deliberately simple — the point is that the campaign machinery
// (permeability, coverage, placement comparison) needs nothing beyond
// the model's structure, so any system expressible in internal/model
// JSON can be measured.
type genericTarget struct {
	sys    *model.System
	inputs []model.SignalID
	probe  model.SignalID // single-consumer input the probe corrupts
	guard  model.SignalID // the probed consumer's first output
}

// NewGenericTarget builds a runnable target from MarshalJSON output.
// The system's name becomes the registry key.
func NewGenericTarget(data []byte) (Target, error) {
	sys, err := model.UnmarshalSystem(data)
	if err != nil {
		return nil, err
	}
	probe, err := singleConsumerInput(sys)
	if err != nil {
		return nil, err
	}
	consumer := sys.ConsumersOf(probe)[0]
	mod, _ := sys.Module(consumer.Module)
	if len(mod.Outputs) == 0 {
		return nil, fmt.Errorf("sut: probe consumer %s of system %s has no outputs", mod.ID, sys.Name())
	}
	return &genericTarget{
		sys:    sys,
		inputs: sys.SystemInputs(),
		probe:  probe,
		guard:  mod.Outputs[0].Signal,
	}, nil
}

func (g *genericTarget) Name() string          { return g.sys.Name() }
func (g *genericTarget) System() *model.System { return g.sys }

// DefaultCases is a three-point workload grid: P1 is the stimulus base
// level, P2 the per-millisecond walk step.
func (g *genericTarget) DefaultCases() []Case {
	return []Case{
		{ID: 1, P1: 300, P2: 5},
		{ID: 2, P1: 500, P2: 9},
		{ID: 3, P1: 700, P2: 17},
	}
}

func (g *genericTarget) DescribeCase(tc Case) string {
	return fmt.Sprintf("base=%.0f walk=%.0f", tc.P1, tc.P2)
}

func (g *genericTarget) AllSignals() []model.SignalID { return g.sys.SignalIDs() }
func (g *genericTarget) ControlPeriodMs() int64       { return genericPeriodMs }

func (g *genericTarget) Defaults() Defaults {
	return Defaults{MaxRunMs: 10_000, TailMs: 0, GraceMs: 0, PeriodicMs: 10}
}

const genericPeriodMs = 10

func (g *genericTarget) Acquire(tc Case, seed int64, v Variant) (Rig, error) {
	bus := model.NewBus(g.sys)
	mem := &memmap.Map{}

	mods := g.sys.Modules()
	slots := make([][]model.ModuleID, genericPeriodMs)
	for k, m := range mods {
		slot := (k + 1) % genericPeriodMs
		slots[slot] = append(slots[slot], m.ID)
	}
	s, err := sched.New(bus, sched.Table{SlotMs: 1, Slots: slots})
	if err != nil {
		return nil, err
	}
	for _, m := range mods {
		if err := s.Register(newGenericModule(g.sys, mem, m)); err != nil {
			return nil, err
		}
	}

	stim := newStimulus(g.sys, g.inputs, tc, seed)
	s.OnPreSlot(func(nowMs int64) { stim.advance(bus) })
	return &genericRig{sys: g.sys, bus: bus, mem: mem, sched: s, stim: stim}, nil
}

func (g *genericTarget) Release(r Rig) {}

// AllEASpecs synthesizes one behaviour assertion per non-input,
// non-boolean signal from its width: the interpreter kernel smooths
// every signal through a 10-bit accumulator, so fault-free steps stay
// well under the width-scaled rate bound while a corrupted read's spike
// overshoots it.
func (g *genericTarget) AllEASpecs() []ea.Spec {
	var out []ea.Spec
	for _, sig := range g.sys.Signals() {
		if sig.Kind == model.KindSystemInput || sig.IsBool() {
			continue
		}
		out = append(out, genericSpec(sig))
	}
	return out
}

func genericSpec(sig *model.Signal) ea.Spec {
	shift := 0
	if sig.Type.Width < 10 {
		shift = int(10 - sig.Type.Width)
	}
	return ea.Spec{
		Name:   "GEA-" + string(sig.ID),
		Signal: sig.ID,
		Kind:   ea.KindBehaviour,
		Min:    0,
		Max:    (1023 >> shift) + 32,
		MaxUp:  96 >> shift, MaxDown: 96 >> shift,
		WarmupChecks: 6,
	}
}

func (g *genericTarget) EHSet() []string {
	var out []string
	for _, s := range g.AllEASpecs() {
		out = append(out, s.Name)
	}
	return out
}

// PASet keeps only the assertions on system outputs — the
// exposure-guided "guard what leaves the system" placement.
func (g *genericTarget) PASet() []string {
	var out []string
	for _, s := range g.AllEASpecs() {
		if sig, ok := g.sys.Signal(s.Signal); ok && sig.Kind == model.KindSystemOutput {
			out = append(out, s.Name)
		}
	}
	return out
}

func (g *genericTarget) ExtendedSet() []string { return g.EHSet() }

// ERMSpecs wraps every system output in a range clamp sized to the
// signal's full domain — silent in fault-free runs by construction.
func (g *genericTarget) ERMSpecs() []erm.Spec {
	var out []erm.Spec
	for _, id := range g.sys.SystemOutputs() {
		sig, _ := g.sys.Signal(id)
		out = append(out, erm.Spec{
			Name: "GRM-" + string(id), Signal: id,
			Min: 0, Max: sig.Type.MaxUnsigned(),
			Policy: erm.PolicyClamp, WarmupWrites: 2,
		})
	}
	return out
}

func (g *genericTarget) Probe() Probe {
	sig, _ := g.sys.Signal(g.guard)
	return Probe{Input: g.probe, Guard: genericSpec(sig)}
}

func (g *genericTarget) CaseSeed(seed int64, tc Case) int64 {
	return seed*1013 + int64(tc.ID)
}

func (g *genericTarget) RunSeed(seed int64, campaign string, index int) int64 {
	return HashSeed(seed, campaign, index)
}

func (g *genericTarget) InjectWindow(horizonMs int64) int64 { return horizonMs }

// genericRig is one assembled interpreter run.
type genericRig struct {
	sys   *model.System
	bus   *model.Bus
	mem   *memmap.Map
	sched *sched.Scheduler
	stim  *stimulus
}

func (r *genericRig) System() *model.System   { return r.sys }
func (r *genericRig) Bus() *model.Bus         { return r.bus }
func (r *genericRig) Mem() *memmap.Map        { return r.mem }
func (r *genericRig) Sched() *sched.Scheduler { return r.sched }

func (r *genericRig) RunFor(durationMs int64) error { return r.sched.RunFor(durationMs) }

func (r *genericRig) RunUntilDone(maxMs int64) (bool, error) {
	if err := r.sched.RunFor(maxMs); err != nil {
		return false, err
	}
	return true, nil
}

// Failed is always false: generic targets have no behavioural
// specification to violate, so campaigns measure error propagation and
// detection only. Failure-class columns degenerate to "no failure",
// which the reports state explicitly.
func (r *genericRig) Failed(done bool) bool { return false }

func (r *genericRig) Save() *Checkpoint { return saveRig(r, r.stim.save()) }

func (r *genericRig) Restore(cp *Checkpoint) {
	restoreRig(r, cp)
	r.stim.restore(cp.env.(*stimulus))
}

func (r *genericRig) Matches(cp *Checkpoint) bool {
	return matchesRig(r, cp) && r.stim.matches(cp.env.(*stimulus))
}

// genericModule is the interpreter kernel: scale every input to a
// common 10-bit domain, average, low-pass the average into a persistent
// accumulator through a transient stack temporary, and emit the
// accumulator (width-scaled, with a per-port offset so sibling outputs
// are distinguishable).
type genericModule struct {
	decl *model.ModuleDecl
	inW  []uint8     // input widths, port order
	outW []uint8     // output widths, port order
	acc  *memmap.Var // RAM: low-pass state
	tmp  *memmap.Var // stack: per-invocation average
}

func newGenericModule(sys *model.System, mem *memmap.Map, decl *model.ModuleDecl) *genericModule {
	m := &genericModule{
		decl: decl,
		acc:  mem.AllocRAM(string(decl.ID), "acc", model.Uint(10), 0),
		tmp:  mem.AllocStack(string(decl.ID), "t", model.Uint(10)),
	}
	for _, in := range decl.Inputs {
		sig, _ := sys.Signal(in.Signal)
		m.inW = append(m.inW, sig.Type.Width)
	}
	for _, op := range decl.Outputs {
		sig, _ := sys.Signal(op.Signal)
		m.outW = append(m.outW, sig.Type.Width)
	}
	return m
}

func (m *genericModule) ModuleID() model.ModuleID { return m.decl.ID }
func (m *genericModule) Reset()                   {}

func (m *genericModule) Step(e *model.Exec) {
	var sum model.Word
	for i := range m.decl.Inputs {
		v := e.In(i + 1)
		w := m.inW[i]
		switch {
		case w < 10:
			v <<= 10 - w
		case w > 10:
			v >>= w - 10
		}
		if v < 0 {
			v = 0
		}
		sum += v
	}
	if n := len(m.decl.Inputs); n > 0 {
		sum /= model.Word(n)
	}
	m.tmp.Set(sum)
	tv := m.tmp.Get()
	acc := m.acc.Get()
	acc += (tv - acc) / 4
	m.acc.Set(acc)

	for j := range m.decl.Outputs {
		v := acc + model.Word(j)
		if w := m.outW[j]; w < 10 {
			v = acc >> (10 - w)
		}
		e.Out(j+1, v)
	}
}

// stimulus drives the system inputs with a seeded bounded random walk,
// advanced once per millisecond slot. The walk is a pure function of
// (case, seed), so golden and injected runs replay identical inputs.
type stimulus struct {
	x    uint64
	ids  []model.SignalID
	vals []model.Word
	caps []model.Word
	walk model.Word
}

func newStimulus(sys *model.System, inputs []model.SignalID, tc Case, seed int64) *stimulus {
	st := &stimulus{
		x:    uint64(seed) ^ 0x9E3779B97F4A7C15,
		ids:  inputs,
		walk: model.Word(tc.P2),
	}
	if st.walk < 1 {
		st.walk = 1
	}
	for i, id := range inputs {
		sig, _ := sys.Signal(id)
		cap := sig.Type.MaxUnsigned()
		if cap > 1023 {
			cap = 1023
		}
		v := model.Word(tc.P1) + 37*model.Word(i)
		if v > cap {
			v = cap
		}
		if v < 0 {
			v = 0
		}
		st.vals = append(st.vals, v)
		st.caps = append(st.caps, cap)
	}
	return st
}

// save returns a copy of the walk's state (the signal list and caps
// are shared: they never change).
func (st *stimulus) save() *stimulus {
	c := *st
	c.vals = slices.Clone(st.vals)
	return &c
}

func (st *stimulus) restore(from *stimulus) {
	st.x = from.x
	copy(st.vals, from.vals)
}

func (st *stimulus) matches(from *stimulus) bool {
	return st.x == from.x && slices.Equal(st.vals, from.vals)
}

func (st *stimulus) delta() model.Word {
	st.x = st.x*6364136223846793005 + 1442695040888963407
	span := int64(2*st.walk + 1)
	return model.Word(int64(st.x>>33)%span) - st.walk
}

func (st *stimulus) advance(bus *model.Bus) {
	for i, id := range st.ids {
		v := st.vals[i] + st.delta()
		if v < 0 {
			v = 0
		}
		if v > st.caps[i] {
			v = st.caps[i]
		}
		st.vals[i] = v
		bus.Poke(id, v)
	}
}
