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

// adaptiveCampaign is a campaign the round driver samples in rounds.
// Its run kernel, shard keys, descriptions and wire codec serve every
// round unchanged; roundStreams lists its sampling streams, each
// stream's runs in trial order. The driver and shard workers both take
// the streams from roundStreams, so they slice identical rounds.
type adaptiveCampaign[Run, Result any] interface {
	Name() string
	Execute(ctx context.Context, run Run, index int) (Result, error)
	campaign.Sharder[Run]
	campaign.Describer[Run]
	campaign.Wire[Result]
	roundStreams() ([][]Run, error)
}

// roundCampaign is one adaptive round as an ordinary engine campaign:
// the plan is the round's job list, Reduce returns results verbatim for
// the driver to fold, and everything else is the adaptive campaign's.
type roundCampaign[Run, Result any] struct {
	adaptiveCampaign[Run, Result]
	name string
	jobs []Run
}

func (c *roundCampaign[Run, Result]) Name() string { return c.name }

func (c *roundCampaign[Run, Result]) Plan() ([]Run, error) { return c.jobs, nil }

func (c *roundCampaign[Run, Result]) Reduce(_ []Run, results []Result) ([]Result, error) {
	return results, nil
}

// newRound builds the campaign of the round st describes: every
// unfinished stream's next batch (or its remainder), streams in order.
// It is a pure function of the streams and the shipped cursor state, so
// the driver and shard workers derive the same plan and plan hash. A
// worker's state arrives from outside the process and is checked.
func newRound[Run, Result any](c adaptiveCampaign[Run, Result], streams [][]Run, st AdaptiveRound) (*roundCampaign[Run, Result], error) {
	name := roundName(c.Name(), st.Round)
	if len(st.Cursors) != len(streams) || len(st.Done) != len(streams) || st.Batch < 1 {
		return nil, fmt.Errorf("experiment: round %s has %d cursors for %d streams and batch %d",
			name, len(st.Cursors), len(streams), st.Batch)
	}
	var jobs []Run
	for si, stream := range streams {
		cur := st.Cursors[si]
		if cur < 0 || cur > len(stream) {
			return nil, fmt.Errorf("experiment: round %s cursor %d is outside stream %d of %d runs", name, cur, si, len(stream))
		}
		if !st.Done[si] {
			jobs = append(jobs, stream[cur:min(cur+st.Batch, len(stream))]...)
		}
	}
	return &roundCampaign[Run, Result]{adaptiveCampaign: c, name: name, jobs: jobs}, nil
}

// runRounds is the adaptive round driver. Round r executes newRound's
// plan as the campaign "<base>@<r>" on the options' executor; worker
// processes receive the cursor state through withRound. The results are
// folded stream by stream in plan order, and a stream then stops once
// it is exhausted or converged under the stopping rule. Stopping
// decisions are pure functions of the plan-order results, so the
// outcome is executor-independent. One BENCH row, timed from bb, covers
// the whole loop; planned is the exact grid the streams stand for.
// runRounds returns the number of runs executed.
func runRounds[Run, Result any](ctx context.Context, opts Options, bb *benchBracket, c adaptiveCampaign[Run, Result], planned int,
	fold func(stream int, run Run, out Result), converged func(rule stats.StopRule, stream int) bool) (int, error) {
	streams, err := c.roundStreams()
	if err != nil {
		return 0, err
	}
	longest := 0
	for _, stream := range streams {
		longest = max(longest, len(stream))
	}
	rule := opts.stopRule()
	cursors := make([]int, len(streams))
	done := make([]bool, len(streams))
	executed := 0
	for round := 0; ; round++ {
		st := AdaptiveRound{
			Campaign: c.Name(),
			Round:    round,
			Cursors:  append([]int(nil), cursors...),
			Done:     append([]bool(nil), done...),
			Batch:    roundBatch(round, longest, rule.MinTrials),
		}
		rc, err := newRound(c, streams, st)
		if err != nil {
			return 0, err
		}
		if len(rc.jobs) == 0 {
			break
		}
		ropts, err := opts.withRound(st)
		if err != nil {
			return 0, err
		}
		results, err := campaign.Execute[Run, Result, []Result](ctx, rc, ropts.executor(), nil)
		if err != nil {
			return 0, err
		}
		for si, stream := range streams {
			if done[si] {
				continue
			}
			n := min(st.Batch, len(stream)-cursors[si])
			for t, out := range results[:n] {
				fold(si, stream[cursors[si]+t], out)
			}
			results = results[n:]
			cursors[si] += n
			executed += n
			done[si] = cursors[si] >= len(stream) || converged(rule, si)
		}
	}
	bb.observe(opts.Timings, c.Name(), executed, planned)
	return executed, nil
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

// collapseMasked emits one region's pruned plan. It walks the exact
// plan's positions in order: each target, then each class in the
// plan's inner-loop order (profs holds one liveness profile per class).
// Each class's masked targets collapse into one representative at the
// class's first masked position, weighted by the class size; every
// other run is emitted as itself, with weight 0.
func collapseMasked(targets []fi.MemTarget, profs []*memmap.Liveness, emit func(tgt fi.MemTarget, class, weight int)) {
	masked := make([]int, len(profs))
	for _, tgt := range targets {
		for k, l := range profs {
			if maskedTarget(l, tgt) {
				masked[k]++
			}
		}
	}
	emitted := make([]bool, len(profs))
	for _, tgt := range targets {
		for k, l := range profs {
			switch {
			case !maskedTarget(l, tgt):
				emit(tgt, k, 0)
			case !emitted[k]:
				emitted[k] = true
				emit(tgt, k, masked[k])
			}
		}
	}
}

// estimatePermeabilityAdaptive is the early-stopping Table 1 campaign:
// each (module, input) stream stops once every outgoing edge's Wilson
// interval is tight. Executed trials keep their exact-plan seeds, so
// the estimates are prefix averages of the exact campaign's.
func estimatePermeabilityAdaptive(ctx context.Context, opts Options, perInput int) (*PermeabilityResult, error) {
	bb := startBenchBracket()
	base, err := newPermeabilityCampaign(ctx, opts, perInput)
	if err != nil {
		return nil, err
	}
	streams := base.streams()
	active := make([]int, len(streams))
	direct := make([]map[int]int, len(streams)) // per stream: output index -> direct deviations
	for si := range direct {
		direct[si] = make(map[int]int)
	}
	var jobs []permJob
	var results []permOutcome
	planned := base.perCase() * len(opts.Cases) * len(streams)
	_, err = runRounds(ctx, opts, bb, base, planned, func(si int, j permJob, out permOutcome) {
		jobs = append(jobs, j)
		results = append(results, out)
		if !out.Active {
			return
		}
		active[si]++
		for _, op := range j.mod.Outputs {
			if out.Direct[op.Index] {
				direct[si][op.Index]++
			}
		}
	}, func(rule stats.StopRule, si int) bool {
		return permStreamConverged(rule, streams[si].mod, active[si], direct[si])
	})
	if err != nil {
		return nil, err
	}
	res, err := base.Reduce(jobs, results)
	if err != nil {
		return nil, err
	}
	res.PlannedRuns = planned
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

// internalCoverageAdaptive is the pruned, early-stopping Figure 3
// campaign: the two region streams (RAM, stack) sample their pruned run
// lists, and a region stops once every assertion set's c_tot interval
// is tight over the weighted trials folded so far.
func internalCoverageAdaptive(ctx context.Context, opts Options, ramLocations, stackLocations int) (*InternalCoverageResult, error) {
	bb := startBenchBracket()
	base, err := newInternalCoverageCampaign(ctx, opts, ramLocations, stackLocations)
	if err != nil {
		return nil, err
	}
	sets := setMembers(base.t)
	res := base.newResult(sets)
	res.PlannedRuns = (len(base.ramTargets) + len(base.stackTargets)) * len(opts.Cases)
	regions := []*RegionCoverage{&res.RAM, &res.Stack}
	res.ExecutedRuns, err = runRounds(ctx, opts, bb, base, res.PlannedRuns, func(si int, j memJob, out memOutcome) {
		regions[si].accumulateN(sets, out.DetectedAt, out.Failed, opts.PeriodicMs, j.weight)
		res.Total.accumulateN(sets, out.DetectedAt, out.Failed, opts.PeriodicMs, j.weight)
	}, func(rule stats.StopRule, si int) bool {
		return regionConverged(rule, regions[si])
	})
	if err != nil {
		return nil, err
	}
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
