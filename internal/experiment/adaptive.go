package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/erm"
	"repro/internal/fi"
	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/sut"
)

// The adaptive-campaign layer (docs/adaptive.md) cuts injection volume
// two ways without giving up determinism:
//
//   - Def/use equivalence pruning: a fault-free run of each test case
//     is profiled (memmap.Liveness) and every internal-model target
//     whose corruption is provably unobservable — dead, or always
//     redefined before its next read — joins a (case, region)
//     equivalence class. One representative executes; the reducer
//     credits its outcome once per class member.
//   - Sequential early stopping: sampling streams (one per module
//     input in the permeability campaign, one per memory region in the
//     internal-model campaigns) run in rounds and stop once their
//     Wilson intervals are tighter than the stopping rule demands.
//
// Rounds compose with every executor: each round is an ordinary
// campaign named "<base>@<round>" whose plan is a pure function of the
// shipped cursor state (AdaptiveRound), so serial, sharded, subprocess
// and chaos execution produce byte-identical outcomes, plan hashes
// agree across the dispatch handshake, and checkpoint journals keyed
// by (campaign, plan hash, shard) resume each round independently.

// Stopping-rule defaults: streams stop once the Wilson 95% interval is
// within ±0.05, but never before 100 trials.
const (
	DefaultStopHalfWidth = 0.05
	DefaultStopMinTrials = 100
)

// stopRule resolves the options' stopping rule, applying defaults. A
// negative StopHalfWidth disables stopping (HalfWidth 0 never
// converges), leaving equivalence pruning as the only savings.
func (o Options) stopRule() stats.StopRule {
	r := stats.StopRule{Z: 1.96, HalfWidth: o.StopHalfWidth, MinTrials: o.StopMinTrials}
	if r.HalfWidth == 0 {
		r.HalfWidth = DefaultStopHalfWidth
	} else if r.HalfWidth < 0 {
		r.HalfWidth = 0
	}
	if r.MinTrials == 0 {
		r.MinTrials = DefaultStopMinTrials
	} else if r.MinTrials < 0 {
		r.MinTrials = 0
	}
	return r
}

// AdaptiveRound is the cursor state of one adaptive round, shipped to
// worker processes through the WorkerSpec so they rebuild the round's
// plan bit-for-bit: per-stream trial cursors, which streams already
// stopped, and the round's batch size.
type AdaptiveRound struct {
	Campaign string `json:"campaign"`
	Round    int    `json:"round"`
	Cursors  []int  `json:"cursors"`
	Done     []bool `json:"done"`
	Batch    int    `json:"batch"`
}

// withRound re-encodes the worker spec in the dispatch environment with
// the round state attached, so the fresh worker processes of this round
// rebuild its campaign. No-op without a dispatcher.
func (o Options) withRound(st AdaptiveRound) (Options, error) {
	if o.Dispatch == nil {
		return o, nil
	}
	d := *o.Dispatch
	d.Env = append([]string(nil), d.Env...)
	reencode := func(specJSON string) (string, error) {
		var spec WorkerSpec
		if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
			return "", fmt.Errorf("experiment: decoding worker spec for round state: %w", err)
		}
		spec.Round = &st
		return spec.Encode()
	}
	prefix := WorkerSpecEnv + "="
	for i, e := range d.Env {
		if !strings.HasPrefix(e, prefix) {
			continue
		}
		enc, err := reencode(e[len(prefix):])
		if err != nil {
			return o, err
		}
		d.Env[i] = prefix + enc
	}
	// The fleet handshake ships Spec directly; keep it in step with the
	// worker environment so network agents see the same round state.
	if d.Spec != "" {
		enc, err := reencode(d.Spec)
		if err != nil {
			return o, err
		}
		d.Spec = enc
	}
	o.Dispatch = &d
	return o, nil
}

// roundName renders the campaign name of one adaptive round. Distinct
// names give every round its own plan hash, keeping checkpoint-journal
// entries and the dispatch handshake round-scoped.
func roundName(base string, round int) string {
	return fmt.Sprintf("%s@%d", base, round)
}

// parseRoundName splits "<base>@<round>"; ok is false for plain names.
func parseRoundName(name string) (base string, round int, ok bool) {
	i := strings.LastIndex(name, "@")
	if i < 0 {
		return "", 0, false
	}
	if _, err := fmt.Sscanf(name[i+1:], "%d", &round); err != nil || round < 0 {
		return "", 0, false
	}
	return name[:i], round, true
}

// roundBatch is the per-stream batch schedule: quarters of the stream,
// with the first round raised to the stopping floor so the rule can
// fire at the earliest opportunity. Small streams collapse to a single
// round, keeping quick campaigns one-shot.
func roundBatch(round, total, minTrials int) int {
	b := (total + 3) / 4
	if round == 0 && b < minTrials {
		b = minTrials
	}
	if b < 1 {
		b = 1
	}
	return b
}

// roundCampaign adapts one adaptive round into an ordinary engine
// campaign: the plan is the round's job list, Reduce returns results
// verbatim for the driver to fold, and the embedded JSONWire keeps the
// round dispatchable to worker processes.
type roundCampaign[Run, Result any] struct {
	campaign.JSONWire[Result]
	name string
	jobs []Run
	exec func(ctx context.Context, run Run, index int) (Result, error)
	key  func(run Run, index int) uint64
	desc func(run Run, index int) string
}

func (c *roundCampaign[Run, Result]) Name() string { return c.name }

func (c *roundCampaign[Run, Result]) Plan() ([]Run, error) { return c.jobs, nil }

func (c *roundCampaign[Run, Result]) Execute(ctx context.Context, run Run, index int) (Result, error) {
	return c.exec(ctx, run, index)
}

func (c *roundCampaign[Run, Result]) Reduce(_ []Run, results []Result) ([]Result, error) {
	return results, nil
}

func (c *roundCampaign[Run, Result]) ShardKey(run Run, index int) uint64 {
	return c.key(run, index)
}

func (c *roundCampaign[Run, Result]) Describe(run Run, index int) string {
	return c.desc(run, index)
}

// benchBracket aggregates a whole round loop into one BENCH timing row,
// mirroring the engine's per-campaign telemetry deltas.
type benchBracket struct {
	start time.Time
	mark  campaign.TelemetryMark
}

func startBenchBracket() *benchBracket {
	return &benchBracket{start: time.Now(), mark: campaign.MarkTelemetry(obs.Active())}
}

func (b *benchBracket) observe(col *campaign.Collector, name string, executed, planned int) {
	if col == nil {
		return
	}
	ext := campaign.Extras{RunsPlanned: planned}
	b.mark.Fill(&ext)
	col.ObserveExt(name, executed, time.Since(b.start), ext)
}

// livenessProfile records the def/use trace of one test case's
// fault-free run against the internal-model injection clock. The
// profiled rig runs exactly like an injection run of the same case
// minus the injector — same variant, same wrappers, since either may
// change the fault-free memory trace — so (by the induction argument
// in memmap.Liveness) the trace decides observability for every memory
// target at once.
func livenessProfile(opts Options, t sut.Target, g *golden, v sut.Variant, wrappers []erm.Spec) (*memmap.Liveness, error) {
	r := caseRig(t, opts.Seed, g)
	r.variant = v
	out, err := runInjection(r, mechanisms{wrappers: wrappers, livenessMs: opts.PeriodicMs}, nil,
		whenDone(g.horizonMs+opts.GraceMs))
	return out.Liveness, err
}

// maskedTarget reports whether the profile proves injections into the
// target unobservable. RAM cells flip in place (persistent criterion),
// stack cells arm the next read (transient criterion); bus-signal
// targets live outside the memory map and always execute.
func maskedTarget(l *memmap.Liveness, tgt fi.MemTarget) bool {
	switch tgt.Kind {
	case fi.TargetRAMCell:
		return l.PersistentMasked(tgt.Cell)
	case fi.TargetStackCell:
		return l.TransientMasked(tgt.Cell)
	}
	return false
}

// prunedMemJobs builds one region's pruned run list: plan order, with
// each (case) class of masked targets collapsed into its first member
// carrying the class size as weight.
func prunedMemJobs(targets []fi.MemTarget, stack bool, profs []*memmap.Liveness) []memJob {
	numCases := len(profs)
	masked := make([]int, numCases)
	for _, tgt := range targets {
		for ci := 0; ci < numCases; ci++ {
			if maskedTarget(profs[ci], tgt) {
				masked[ci]++
			}
		}
	}
	emitted := make([]bool, numCases)
	var out []memJob
	for _, tgt := range targets {
		for ci := 0; ci < numCases; ci++ {
			if maskedTarget(profs[ci], tgt) {
				if emitted[ci] {
					continue
				}
				emitted[ci] = true
				out = append(out, memJob{tgt: tgt, caseIdx: ci, stack: stack, weight: masked[ci]})
			} else {
				out = append(out, memJob{tgt: tgt, caseIdx: ci, stack: stack})
			}
		}
	}
	return out
}

// estimatePermeabilityAdaptive is the early-stopping permeability
// driver: rounds of case-interleaved trials per (module, input) stream,
// each stream stopping once every outgoing edge's Wilson interval is
// tight. Stopping decisions are pure functions of accumulated
// plan-order results, so the outcome is executor-independent; executed
// trials keep their exact-plan seeds, so the estimates are prefix
// averages of the exact campaign's.
func estimatePermeabilityAdaptive(ctx context.Context, opts Options, perInput int) (*PermeabilityResult, error) {
	bb := startBenchBracket()
	base, err := newPermeabilityCampaign(ctx, opts, perInput)
	if err != nil {
		return nil, err
	}
	streams := base.streams()
	numCases := len(opts.Cases)
	perCase := base.perCase()
	total := perCase * numCases // trials per stream
	rule := opts.stopRule()

	type streamStat struct {
		active int
		direct map[int]int // output index -> direct deviations
	}
	stat := make([]streamStat, len(streams))
	for i := range stat {
		stat[i].direct = make(map[int]int)
	}
	cursors := make([]int, len(streams))
	done := make([]bool, len(streams))
	var allJobs []permJob
	var allResults []permOutcome

	for round := 0; ; round++ {
		batch := roundBatch(round, total, rule.MinTrials)
		st := AdaptiveRound{
			Campaign: base.Name(),
			Round:    round,
			Cursors:  append([]int(nil), cursors...),
			Done:     append([]bool(nil), done...),
			Batch:    batch,
		}
		rc, err := base.round(roundName(base.Name(), round), st)
		if err != nil {
			return nil, err
		}
		if len(rc.jobs) == 0 {
			break
		}
		ropts, err := opts.withRound(st)
		if err != nil {
			return nil, err
		}
		results, err := campaign.Execute[permJob, permOutcome, []permOutcome](ctx, rc, ropts.executor(), nil)
		if err != nil {
			return nil, err
		}
		// Fold stream by stream — roundJobs emits unfinished streams in
		// order, batch (or remainder) trials each.
		ji := 0
		for si := range streams {
			if done[si] {
				continue
			}
			n := batch
			if rem := total - cursors[si]; n > rem {
				n = rem
			}
			for t := 0; t < n; t++ {
				out := results[ji+t]
				if !out.Active {
					continue
				}
				stat[si].active++
				for _, op := range streams[si].mod.Outputs {
					if out.Direct[op.Index] {
						stat[si].direct[op.Index]++
					}
				}
			}
			ji += n
			cursors[si] += n
			if cursors[si] >= total || permStreamConverged(rule, streams[si].mod, stat[si].active, stat[si].direct) {
				done[si] = true
			}
		}
		allJobs = append(allJobs, rc.jobs...)
		allResults = append(allResults, results...)
	}

	res, err := base.Reduce(allJobs, allResults)
	if err != nil {
		return nil, err
	}
	res.PlannedRuns = total * len(streams)
	bb.observe(opts.Timings, base.Name(), len(allJobs), res.PlannedRuns)
	return res, nil
}

// permStreamConverged reports whether every outgoing edge of the
// stream's module has a tight interval over the stream's active trials.
func permStreamConverged(rule stats.StopRule, mod *model.ModuleDecl, active int, direct map[int]int) bool {
	if len(mod.Outputs) == 0 {
		return rule.Converged(stats.Proportion{Trials: active})
	}
	for _, op := range mod.Outputs {
		if !rule.Converged(stats.Proportion{Successes: direct[op.Index], Trials: active}) {
			return false
		}
	}
	return true
}

// internalCoverageAdaptive is the pruning + early-stopping Figure 3
// driver: the two region streams (RAM, stack) sample their pruned run
// lists in rounds, and a region stops once every assertion set's c_tot
// interval is tight over the weighted trials accumulated so far.
func internalCoverageAdaptive(ctx context.Context, opts Options, ramLocations, stackLocations int) (*InternalCoverageResult, error) {
	bb := startBenchBracket()
	base, err := newInternalCoverageCampaign(ctx, opts, ramLocations, stackLocations)
	if err != nil {
		return nil, err
	}
	if err := base.prepare(); err != nil {
		return nil, err
	}
	streams := [][]memJob{base.ramPruned, base.stackPruned}
	maxLen := len(streams[0])
	if len(streams[1]) > maxLen {
		maxLen = len(streams[1])
	}
	rule := opts.stopRule()

	sets := setMembers(base.t)
	res := base.newResult(sets)
	regions := []*RegionCoverage{&res.RAM, &res.Stack}
	cursors := make([]int, len(streams))
	done := make([]bool, len(streams))
	executed := 0

	for round := 0; ; round++ {
		batch := roundBatch(round, maxLen, rule.MinTrials)
		st := AdaptiveRound{
			Campaign: base.Name(),
			Round:    round,
			Cursors:  append([]int(nil), cursors...),
			Done:     append([]bool(nil), done...),
			Batch:    batch,
		}
		rc, err := base.round(roundName(base.Name(), round), st)
		if err != nil {
			return nil, err
		}
		if len(rc.jobs) == 0 {
			break
		}
		ropts, err := opts.withRound(st)
		if err != nil {
			return nil, err
		}
		results, err := campaign.Execute[memJob, memOutcome, []memOutcome](ctx, rc, ropts.executor(), nil)
		if err != nil {
			return nil, err
		}
		ji := 0
		for si := range streams {
			if done[si] {
				continue
			}
			n := batch
			if rem := len(streams[si]) - cursors[si]; n > rem {
				n = rem
			}
			for t := 0; t < n; t++ {
				j, out := rc.jobs[ji+t], results[ji+t]
				regions[si].accumulateN(sets, out.DetectedAt, out.Failed, opts.PeriodicMs, j.weight)
				res.Total.accumulateN(sets, out.DetectedAt, out.Failed, opts.PeriodicMs, j.weight)
			}
			ji += n
			cursors[si] += n
			executed += n
			if cursors[si] >= len(streams[si]) || regionConverged(rule, regions[si]) {
				done[si] = true
			}
		}
	}

	res.PlannedRuns = (len(base.ramTargets) + len(base.stackTargets)) * len(opts.Cases)
	res.ExecutedRuns = executed
	bb.observe(opts.Timings, base.Name(), executed, res.PlannedRuns)
	return res, nil
}

// regionConverged reports whether every assertion set's total-coverage
// interval over the region is tight.
func regionConverged(rule stats.StopRule, rc *RegionCoverage) bool {
	for _, sc := range rc.PerSet {
		if !rule.Converged(sc.Tot) {
			return false
		}
	}
	return true
}
