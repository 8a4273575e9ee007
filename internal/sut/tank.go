package sut

import (
	"fmt"

	"repro/internal/ea"
	"repro/internal/erm"
	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/tank"
)

func init() {
	MustRegister(tankTarget{})
}

// tankTarget adapts internal/tank — the two-output level-control demo
// (VALVE criticality 1.0, ALARM criticality 0.25, exercising the
// multi-output criticality math of Eqs. 3-4) — to the Target seam. The
// seed and injection-window policies reproduce the deleted bespoke
// campaign glue in internal/tank, so examples/tanklevel output stays
// byte-identical.
type tankTarget struct{}

func (tankTarget) Name() string          { return "tank" }
func (tankTarget) System() *model.System { return tank.SharedSystem() }

func (tankTarget) DefaultCases() []Case {
	tcs := tank.DefaultTestCases()
	out := make([]Case, len(tcs))
	for i, tc := range tcs {
		out[i] = Case{ID: tc.ID, P1: tc.InflowBase, P2: float64(tc.SetpointUnits)}
	}
	return out
}

func (tankTarget) DescribeCase(tc Case) string {
	return fmt.Sprintf("inflow=%.2fm3/s setpoint=%.0f", tc.P1, tc.P2)
}

func (tankTarget) AllSignals() []model.SignalID { return tank.AllSignals() }
func (tankTarget) ControlPeriodMs() int64       { return tank.ControlPeriodMs }

func (tankTarget) Defaults() Defaults {
	// The tank has no natural completion criterion; campaigns observe
	// a fixed 40 s horizon (the deleted glue's RunMs) with no tail.
	return Defaults{MaxRunMs: 40_000, TailMs: 0, GraceMs: 0, PeriodicMs: 10}
}

func (tankTarget) Acquire(tc Case, seed int64, v Variant) (Rig, error) {
	r, err := tank.NewRig(tank.Config{
		InflowBase:    tc.P1,
		SetpointUnits: model.Word(tc.P2),
		Seed:          seed,
	})
	if err != nil {
		return nil, err
	}
	return tankRig{r}, nil
}

func (tankTarget) Release(r Rig) {}

func (tankTarget) AllEASpecs() []ea.Spec { return tank.AllEASpecs() }
func (tankTarget) EHSet() []string       { return tank.EHSet() }
func (tankTarget) PASet() []string       { return tank.PASet() }
func (tankTarget) ExtendedSet() []string { return tank.ExtendedSet() }
func (tankTarget) ERMSpecs() []erm.Spec  { return tank.DefaultERMSpecs() }

func (tankTarget) Probe() Probe {
	// FLW_CNT's single consumer (SENS_F) derives inflow; the windowed
	// pulse-count assertion is the bound the tightness study sweeps.
	var guard ea.Spec
	for _, s := range tank.AllEASpecs() {
		if s.Name == tank.TEAInflow {
			guard = s
		}
	}
	return Probe{Input: tank.SigFlwCnt, Guard: guard}
}

// CaseSeed and RunSeed reproduce the deleted tank campaign glue's
// derivations exactly (golden cfg seed Seed*101+ID, run rng
// Seed*100_003+index, campaign-name independent).
func (tankTarget) CaseSeed(seed int64, tc Case) int64 {
	return seed*101 + int64(tc.ID)
}

func (tankTarget) RunSeed(seed int64, campaign string, index int) int64 {
	return seed*100_003 + int64(index)
}

// InjectWindow keeps the glue's 1 s guard band before the horizon so
// every drawn flip is observed by at least one scheduled read.
func (tankTarget) InjectWindow(horizonMs int64) int64 { return horizonMs - 1000 }

// tankRig wraps *tank.Rig behind the Rig seam. Tank rigs are not
// pooled: each run builds a fresh rig over the shared system.
type tankRig struct {
	r *tank.Rig
}

func (t tankRig) System() *model.System   { return t.r.Sys }
func (t tankRig) Bus() *model.Bus         { return t.r.Bus }
func (t tankRig) Mem() *memmap.Map        { return t.r.Mem }
func (t tankRig) Sched() *sched.Scheduler { return t.r.Sched }

func (t tankRig) RunFor(durationMs int64) error { return t.r.RunFor(durationMs) }

func (t tankRig) RunUntilDone(maxMs int64) (bool, error) {
	if err := t.r.RunFor(maxMs); err != nil {
		return false, err
	}
	return true, nil
}

func (t tankRig) Failed(done bool) bool { return t.r.Classify().Failed() }

func (t tankRig) Save() *Checkpoint { return saveRig(t, t.r.Plant.Save()) }

func (t tankRig) Restore(cp *Checkpoint) {
	restoreRig(t, cp)
	t.r.Plant.Restore(cp.env.(*tank.Snapshot))
}

func (t tankRig) Matches(cp *Checkpoint) bool {
	return matchesRig(t, cp) && t.r.Plant.Matches(cp.env.(*tank.Snapshot))
}
