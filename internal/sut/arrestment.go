package sut

import (
	"fmt"

	"repro/internal/ea"
	"repro/internal/erm"
	"repro/internal/failure"
	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/physics"
	"repro/internal/sched"
	"repro/internal/target"
)

func init() {
	MustRegister(arrestment{})
}

// arrestment adapts internal/target — the paper's aircraft arrestment
// system — to the Target seam. Every derivation here (case seeds, run
// seeds, injection windows, bank construction order) reproduces what
// the campaigns did before the seam existed, so default-target output
// stays byte-identical for fixed seeds.
type arrestment struct{}

func (arrestment) Name() string          { return DefaultTarget }
func (arrestment) System() *model.System { return target.SharedSystem() }

func (arrestment) DefaultCases() []Case {
	tcs := target.DefaultTestCases()
	out := make([]Case, len(tcs))
	for i, tc := range tcs {
		out[i] = Case{ID: tc.ID, P1: tc.MassKg, P2: tc.EngageVelocityMps}
	}
	return out
}

func (arrestment) DescribeCase(tc Case) string {
	return fmt.Sprintf("mass=%.0fkg v=%.0fm/s", tc.P1, tc.P2)
}

func (arrestment) AllSignals() []model.SignalID { return target.AllSignals() }
func (arrestment) ControlPeriodMs() int64       { return target.ControlPeriodMs }

func (arrestment) Defaults() Defaults {
	return Defaults{MaxRunMs: 30_000, TailMs: 500, GraceMs: 5_000, PeriodicMs: 20}
}

func (arrestment) Acquire(tc Case, seed int64, v Variant) (Rig, error) {
	r, err := target.AcquireRig(target.Config{
		MassKg:            tc.P1,
		EngageVelocityMps: tc.P2,
		Seed:              seed,
		HardenedDistS:     v.Hardened,
	})
	if err != nil {
		return nil, err
	}
	return arrestRig{r}, nil
}

func (arrestment) Release(r Rig) {
	if ar, ok := r.(arrestRig); ok {
		target.ReleaseRig(ar.r)
	}
}

func (arrestment) AllEASpecs() []ea.Spec { return target.AllEASpecs() }
func (arrestment) EHSet() []string       { return target.EHSet() }
func (arrestment) PASet() []string       { return target.PASet() }
func (arrestment) ExtendedSet() []string { return target.ExtendedSet() }
func (arrestment) ERMSpecs() []erm.Spec  { return target.DefaultERMSpecs() }

func (arrestment) Probe() Probe {
	// PACNT's single consumer (DIST_S) derives pulscnt; EA4 is the
	// bounded-counter assertion the tightness study sweeps.
	var guard ea.Spec
	for _, s := range target.AllEASpecs() {
		if s.Name == target.EA4 {
			guard = s
		}
	}
	return Probe{Input: target.SigPACNT, Guard: guard}
}

func (arrestment) CaseSeed(seed int64, tc Case) int64 {
	return seed*1009 + int64(tc.ID)
}

func (arrestment) RunSeed(seed int64, campaign string, index int) int64 {
	return HashSeed(seed, campaign, index)
}

func (arrestment) InjectWindow(horizonMs int64) int64 { return horizonMs }

// arrestRig wraps *target.Rig behind the Rig seam.
type arrestRig struct {
	r *target.Rig
}

func (a arrestRig) System() *model.System   { return a.r.Sys }
func (a arrestRig) Bus() *model.Bus         { return a.r.Bus }
func (a arrestRig) Mem() *memmap.Map        { return a.r.Mem }
func (a arrestRig) Sched() *sched.Scheduler { return a.r.Sched }

func (a arrestRig) RunFor(durationMs int64) error { return a.r.RunFor(durationMs) }

func (a arrestRig) RunUntilDone(maxMs int64) (bool, error) {
	return a.r.RunUntilArrested(maxMs)
}

func (a arrestRig) Failed(done bool) bool {
	return failure.Classify(a.r.Plant, done, failure.DefaultLimits()).Failed()
}

func (a arrestRig) Save() *Checkpoint { return saveRig(a, a.r.Plant.Save()) }

func (a arrestRig) Restore(cp *Checkpoint) {
	restoreRig(a, cp)
	a.r.Plant.Restore(cp.env.(*physics.Snapshot))
}

func (a arrestRig) Matches(cp *Checkpoint) bool {
	return matchesRig(a, cp) && a.r.Plant.Matches(cp.env.(*physics.Snapshot))
}
