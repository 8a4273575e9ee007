// Package sut is the system-under-test seam: it captures everything an
// injection campaign needs from a target — rig construction, test
// cases, signal enumeration, assertion/wrapper bank specs,
// run-until-done semantics, failure classification and the seed
// policies that make campaigns replayable — behind a Target interface
// plus a process-wide registry.
//
// The paper's placement method (exposure, permeability, criticality
// Eqs. 1-4) is target-agnostic; this package makes the campaign code
// match. The arrestment target (internal/target) is registered as the
// default, the tank demo (internal/tank) and the JSON-loaded multiout
// engine controller are the first library entries, and any system
// expressible in internal/model's JSON form can join via
// RegisterModelJSON. See docs/targets.md.
package sut

import (
	"fmt"

	"repro/internal/ea"
	"repro/internal/erm"
	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/physics"
	"repro/internal/sched"
)

// Case is one workload entry of a target's test grid. P1 and P2 are
// target-interpreted scenario parameters (arrestment: mass and
// engagement velocity; tank: inflow base and setpoint; generic JSON
// targets: stimulus base level and walk step).
type Case struct {
	ID int     `json:"id"`
	P1 float64 `json:"p1"`
	P2 float64 `json:"p2"`
}

// Variant selects an optional rig build variation.
type Variant struct {
	// Hardened enables the target's module-internal plausibility
	// checks (the Section 7 recovery study's third arm). Targets
	// without a hardened build ignore it.
	Hardened bool
}

// Defaults are the per-target campaign horizon defaults.
type Defaults struct {
	// MaxRunMs bounds the golden run.
	MaxRunMs int64
	// TailMs extends the observation window past the golden run's
	// completion point.
	TailMs int64
	// GraceMs extends internal-model runs past the golden horizon.
	GraceMs int64
	// PeriodicMs is the severe-model injection period.
	PeriodicMs int64
}

// Probe names the target's canonical injection probe for the
// model-sensitivity, tightness and integration campaigns: a system
// input with exactly one consumer, plus the assertion guarding the
// consumer's downstream signal whose bound those campaigns sweep.
type Probe struct {
	// Input is the system input whose consumer reads are corrupted.
	Input model.SignalID
	// Guard is the swept assertion's template. KindCounter guards
	// sweep MaxStep; KindBehaviour guards sweep MaxUp/MaxDown.
	Guard ea.Spec
}

// Rig is one assembled, runnable instance of a target.
type Rig interface {
	// System returns the immutable system description.
	System() *model.System
	// Bus returns the run's shared-memory signal bus.
	Bus() *model.Bus
	// Mem returns the run's simulated memory map.
	Mem() *memmap.Map
	// Sched returns the run's scheduler, for hook installation.
	Sched() *sched.Scheduler
	// RunFor advances the run by durationMs of scheduler time.
	RunFor(durationMs int64) error
	// RunUntilDone runs until the target's natural completion
	// criterion (the arrestment's standstill) or maxMs elapses,
	// reporting whether completion was reached. Targets without a
	// completion criterion run the full horizon and report true.
	RunUntilDone(maxMs int64) (bool, error)
	// Failed classifies the finished run against the target's
	// specification; done is RunUntilDone's verdict.
	Failed(done bool) bool
	// Save returns a checkpoint of the rig's full dynamic state. Taken
	// from a post-slot hook, it stands for the start of the next slot.
	Save() *Checkpoint
	// Restore puts the rig into a checkpointed state, in O(state).
	// The checkpoint must come from a rig of the same target, case
	// and variant; call it between slots.
	Restore(cp *Checkpoint)
	// Matches reports whether the rig's full dynamic state equals the
	// checkpoint's, reading the clock as Save does. Hooks installed
	// on the rig are not state: a run whose rig matches a checkpoint
	// of a reference run, and whose hooks no longer alter anything,
	// replays the reference run from there.
	Matches(cp *Checkpoint) bool
}

// Checkpoint is a saved copy of a rig's full dynamic state: the raw
// bus values, the raw memory cells, the scheduler clock and
// invocation counts, and the target's environment (plant or stimulus).
// It is immutable once taken; any number of rigs may restore from it
// concurrently.
type Checkpoint struct {
	bus   []model.Word
	mem   []model.Word
	sched sched.State
	env   any
}

// AtMs is the scheduler time the checkpoint stands for.
func (cp *Checkpoint) AtMs() int64 { return cp.sched.NowMs }

// RetainedBytes is the memory a set of checkpoints holds in saved
// words and noise keyframes: eight bytes per bus, memory and invocation
// word, plus one generator copy per keyframe their noise marks share.
// The few plain fields of each environment are not counted.
func RetainedBytes(cps []*Checkpoint) int {
	n := 0
	keyframes := make(map[*physics.Keyframe]bool)
	for _, cp := range cps {
		n += 8 * (len(cp.bus) + len(cp.mem) + len(cp.sched.Invoked))
		if env, ok := cp.env.(interface{ Noise() physics.Mark }); ok {
			keyframes[env.Noise().Keyframe()] = true
		}
	}
	return n + len(keyframes)*physics.KeyframeBytes()
}

// saveRig checkpoints the state every rig shares, plus env.
func saveRig(r Rig, env any) *Checkpoint {
	cp := &Checkpoint{bus: r.Bus().SnapshotInto(nil), mem: r.Mem().SnapshotInto(nil), env: env}
	r.Sched().Save(&cp.sched)
	return cp
}

// restoreRig restores the state every rig shares.
func restoreRig(r Rig, cp *Checkpoint) {
	r.Bus().RestoreRaw(cp.bus)
	r.Mem().RestoreRaw(cp.mem)
	r.Sched().Restore(&cp.sched)
}

// matchesRig compares the state every rig shares.
func matchesRig(r Rig, cp *Checkpoint) bool {
	return r.Sched().Matches(&cp.sched) && r.Bus().MatchesRaw(cp.bus) && r.Mem().MatchesRaw(cp.mem)
}

// Target is one registered system under test.
type Target interface {
	// Name is the registry key.
	Name() string
	// System returns the shared immutable system description.
	System() *model.System
	// DefaultCases returns the target's workload grid.
	DefaultCases() []Case
	// DescribeCase renders a case's parameters for diagnostics.
	DescribeCase(tc Case) string
	// AllSignals returns every signal in declaration order (golden
	// trace recording order).
	AllSignals() []model.SignalID
	// ControlPeriodMs is the sampling period of assertion banks.
	ControlPeriodMs() int64
	// Defaults returns the campaign horizon defaults.
	Defaults() Defaults
	// Acquire builds (or reuses from a pool) a rig for one scenario.
	Acquire(tc Case, seed int64, v Variant) (Rig, error)
	// Release returns a rig acquired from Acquire.
	Release(r Rig)
	// AllEASpecs returns every executable assertion of the target.
	AllEASpecs() []ea.Spec
	// EHSet, PASet and ExtendedSet name the assertion subsets of the
	// experience-based, exposure-selected and extended placements.
	EHSet() []string
	PASet() []string
	ExtendedSet() []string
	// ERMSpecs returns the target's recovery wrappers.
	ERMSpecs() []erm.Spec
	// Probe returns the canonical injection probe.
	Probe() Probe
	// CaseSeed derives the rig seed for a case from the campaign seed.
	CaseSeed(seed int64, tc Case) int64
	// RunSeed derives the per-run RNG seed from the campaign seed, the
	// campaign name and the run's stable plan index.
	RunSeed(seed int64, campaign string, index int) int64
	// InjectWindow maps the golden horizon to the exclusive upper
	// bound for drawn injection times.
	InjectWindow(horizonMs int64) int64
}

// SpecsFor resolves assertion names against a target's spec list.
func SpecsFor(t Target, names []string) ([]ea.Spec, error) {
	all := t.AllEASpecs()
	byName := make(map[string]ea.Spec, len(all))
	for _, s := range all {
		byName[s.Name] = s
	}
	out := make([]ea.Spec, 0, len(names))
	for _, n := range names {
		s, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("sut: target %s has no assertion %q", t.Name(), n)
		}
		out = append(out, s)
	}
	return out, nil
}

// NewBank instantiates the named assertions over the rig's bus,
// checked once per control period. Install bank.Hook as a post-slot
// hook for periodic checking.
func NewBank(t Target, r Rig, names []string) (*ea.Bank, error) {
	specs, err := SpecsFor(t, names)
	if err != nil {
		return nil, err
	}
	return ea.NewBank(r.Bus(), t.ControlPeriodMs(), specs)
}

// NewERMBank installs recovery wrappers on the rig: write filters on
// the guarded signals plus the bank's pre-slot clock hook.
func NewERMBank(r Rig, specs []erm.Spec) (*erm.Bank, error) {
	bank, err := erm.NewBank(r.Bus(), specs)
	if err != nil {
		return nil, err
	}
	r.Sched().OnPreSlot(bank.Hook)
	return bank, nil
}

// HashSeed is the default RunSeed derivation shared by the arrestment
// and generic targets: a polynomial hash of the campaign name folded
// with the plan index.
func HashSeed(seed int64, campaign string, index int) int64 {
	h := seed
	for _, c := range campaign {
		h = h*131 + int64(c)
	}
	return h*1_000_003 + int64(index)
}
