package experiment

import (
	"context"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/fi"
	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/sut"
)

// EA set names used across coverage results.
const (
	SetEH       = "EH"
	SetPA       = "PA"
	SetExtended = "extended"
)

// setMembers resolves a set name to the target's assertion names.
func setMembers(t sut.Target) map[string][]string {
	return map[string][]string{
		SetEH:       t.EHSet(),
		SetPA:       t.PASet(),
		SetExtended: t.ExtendedSet(),
	}
}

// CoverageRow is the Table 4 accounting for errors injected into one
// system input signal.
type CoverageRow struct {
	Signal model.SignalID
	// Injected counts all runs; Active the errors "injected before the
	// arrestment ... was completed" (the paper's n_err).
	Injected, Active int
	// PerEA is the detection coverage of each individual assertion over
	// active errors.
	PerEA map[string]stats.Proportion
	// PerSet is the combined coverage of each assertion set.
	PerSet map[string]stats.Proportion
	// PairDetections counts, for each ordered assertion pair (a, b),
	// the active runs detected by both — the raw material for the
	// subsumption analysis behind the paper's remark that every EA1,
	// EA2 or EA7 detection was also an EA4 detection.
	PairDetections map[string]map[string]int
	// SetLatenciesMs holds, per assertion set, the detection latency of
	// every detected run: time from the injected corruption to the
	// set's first firing assertion.
	SetLatenciesMs map[string][]float64
}

// InputCoverageResult is the measured Table 4.
type InputCoverageResult struct {
	Rows []CoverageRow
	// All aggregates across all injected signals (the paper's All row).
	All CoverageRow
}

// covJob is one input-model injection run.
type covJob struct {
	sig     model.SignalID
	port    model.PortRef
	caseIdx int
}

// covOutcome is one input-model run's detections, wire-encodable for
// the subprocess dispatcher.
type covOutcome struct {
	Active     bool             `json:"active"`
	InjectedAt int64            `json:"injected_at"`
	DetectedAt map[string]int64 `json:"detected_at,omitempty"`
}

// inputCoverageCampaign is the Table 4 campaign on the engine.
type inputCoverageCampaign struct {
	campaign.JSONWire[covOutcome]
	opts      Options
	t         sut.Target
	perSignal int
	signals   []model.SignalID
	golds     []*golden
	sys       *model.System
	eh        []eaBank
}

func (c *inputCoverageCampaign) Name() string { return "input-coverage" }

func (c *inputCoverageCampaign) Plan() ([]covJob, error) {
	perCase := c.perSignal / len(c.opts.Cases)
	if perCase < 1 {
		perCase = 1
	}
	var plan []covJob
	for _, sig := range c.signals {
		consumers := c.sys.ConsumersOf(sig)
		if len(consumers) != 1 {
			return nil, fmt.Errorf("experiment: system input %s has %d consumers, want 1", sig, len(consumers))
		}
		for ci := range c.opts.Cases {
			for k := 0; k < perCase; k++ {
				plan = append(plan, covJob{sig: sig, port: consumers[0], caseIdx: ci})
			}
		}
	}
	return plan, nil
}

// Execute runs one input-model injection with the full EA bank
// deployed and reports when the corruption was observed and which
// assertions fired, with their first detection times.
func (c *inputCoverageCampaign) Execute(_ context.Context, j covJob, index int) (covOutcome, error) {
	g := c.golds[j.caseIdx]
	rng := runRand(c.t.RunSeed(c.opts.Seed, "cov", index))
	sig, _ := c.sys.Signal(j.sig)
	flip := drawFlip(rng, j.port, sig, c.t.InjectWindow(g.arrestMs))
	out, err := runInjection(caseRig(c.t, c.opts.Seed, g), mechanisms{banks: c.eh},
		injected(fi.NewInjector(flip)), atHorizon(g.horizonMs))
	if err != nil {
		return covOutcome{}, err
	}
	return covOutcome{Active: out.Active, InjectedAt: out.FirstMs, DetectedAt: out.DetectedAt[0]}, nil
}

func (c *inputCoverageCampaign) Reduce(plan []covJob, results []covOutcome) (*InputCoverageResult, error) {
	sets := setMembers(c.t)
	rows := make(map[model.SignalID]*CoverageRow, len(c.signals))
	for _, sig := range c.signals {
		rows[sig] = newCoverageRow(c.t, sets, sig)
	}
	all := newCoverageRow(c.t, sets, "All")
	for i, j := range plan {
		out := results[i]
		rows[j.sig].accumulate(sets, out.Active, out.InjectedAt, out.DetectedAt)
		all.accumulate(sets, out.Active, out.InjectedAt, out.DetectedAt)
	}
	res := &InputCoverageResult{All: *all}
	for _, sig := range c.signals {
		res.Rows = append(res.Rows, *rows[sig])
	}
	return res, nil
}

func (c *inputCoverageCampaign) ShardKey(j covJob, _ int) uint64 {
	return shardKeyFor(c.opts, c.opts.Cases[j.caseIdx])
}

func (c *inputCoverageCampaign) Describe(j covJob, index int) string {
	return describeRun(c.t, c.opts, c.t.RunSeed(c.opts.Seed, "cov", index), j.caseIdx) + " signal=" + string(j.sig)
}

// InputCoverage runs the Section 6.2 campaign: errors enter "via the
// system inputs (e.g., by noisy and/or faulty sensors)" — single
// transient bit-flips observed at the consuming module's read of each
// system input — and every EA's detections are recorded. perSignal is
// the number of injections per input signal across all cases (2000 in
// the paper). Signals defaults to the target's four system inputs when
// nil.
func InputCoverage(ctx context.Context, opts Options, perSignal int, signals []model.SignalID) (*InputCoverageResult, error) {
	c, err := newInputCoverageCampaign(ctx, opts, perSignal, signals)
	if err != nil {
		return nil, err
	}
	return campaign.Execute[covJob, covOutcome, *InputCoverageResult](ctx, c, opts.executor(), opts.Timings)
}

func newInputCoverageCampaign(ctx context.Context, opts Options, perSignal int, signals []model.SignalID) (*inputCoverageCampaign, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if perSignal < 1 {
		return nil, fmt.Errorf("experiment: perSignal %d must be >= 1", perSignal)
	}
	t, err := resolvedTarget(opts)
	if err != nil {
		return nil, err
	}
	if signals == nil {
		signals = t.System().SystemInputs()
	}
	golds, err := goldens(ctx, opts, t)
	if err != nil {
		return nil, err
	}
	eh, err := ehBank(t)
	if err != nil {
		return nil, err
	}
	return &inputCoverageCampaign{
		opts: opts, t: t, perSignal: perSignal, signals: signals,
		golds: golds, sys: t.System(), eh: eh,
	}, nil
}

func newCoverageRow(t sut.Target, sets map[string][]string, sig model.SignalID) *CoverageRow {
	r := &CoverageRow{
		Signal:         sig,
		PerEA:          make(map[string]stats.Proportion),
		PerSet:         make(map[string]stats.Proportion),
		PairDetections: make(map[string]map[string]int),
		SetLatenciesMs: make(map[string][]float64),
	}
	for _, s := range t.AllEASpecs() {
		r.PerEA[s.Name] = stats.Proportion{}
		r.PairDetections[s.Name] = make(map[string]int)
	}
	for name := range sets {
		r.PerSet[name] = stats.Proportion{}
	}
	return r
}

// accumulate folds one run into the row. detectedAt maps each fired
// assertion to its first detection time; injectedAt is when the
// corruption was observed.
func (r *CoverageRow) accumulate(sets map[string][]string, active bool, injectedAt int64, detectedAt map[string]int64) {
	r.Injected++
	if !active {
		return
	}
	r.Active++
	for ea, p := range r.PerEA {
		_, hit := detectedAt[ea]
		p.Add(hit)
		r.PerEA[ea] = p
	}
	for a := range detectedAt {
		for b := range detectedAt {
			r.PairDetections[a][b]++
		}
	}
	for set, members := range sets {
		first := firstDetection(members, detectedAt)
		p := r.PerSet[set]
		p.Add(first >= 0)
		r.PerSet[set] = p
		if first >= 0 {
			lat := first - injectedAt
			if lat < 0 {
				lat = 0
			}
			r.SetLatenciesMs[set] = append(r.SetLatenciesMs[set], float64(lat))
		}
	}
}

// firstDetection returns the earliest first-detection time among an
// assertion set's members, or -1 if none of them fired.
func firstDetection(members []string, detectedAt map[string]int64) int64 {
	first := int64(-1)
	for _, ea := range members {
		if at, ok := detectedAt[ea]; ok && (first < 0 || at < first) {
			first = at
		}
	}
	return first
}

// SetCoverage is one bar group of Figure 3: total coverage, coverage
// over failed runs, and coverage over non-failed runs.
type SetCoverage struct {
	Tot, Fail, NoFail stats.Proportion
}

// RegionCoverage aggregates one memory region of the internal error
// model.
type RegionCoverage struct {
	Region string
	PerSet map[string]SetCoverage
	// SetLatenciesMs holds, per set, the latency from the first
	// injected corruption to the set's first detection, for every
	// detected run.
	SetLatenciesMs map[string][]float64
	// Runs and Failures account for campaign volume.
	Runs, Failures int
}

// InternalCoverageResult is the measured Figure 3.
type InternalCoverageResult struct {
	RAM, Stack, Total RegionCoverage
	// RAMLocations and StackLocations are the sampled location counts.
	RAMLocations, StackLocations int
	// PlannedRuns and ExecutedRuns account for adaptive savings: the
	// exact grid size the campaign stands for versus the injections that
	// actually ran (equal for exact campaigns).
	PlannedRuns, ExecutedRuns int
}

// memJob is one internal-model injection run: periodic flips of one
// memory target during one test case. weight is the def/use equivalence
// class size the run stands for (0 and 1 both mean just itself): a
// pruned plan executes one representative of each provably-masked class
// and the reducer credits the outcome weight times.
type memJob struct {
	tgt     fi.MemTarget
	caseIdx int
	stack   bool
	weight  int
}

// memOutcome is one internal-model run's detections and verdict,
// wire-encodable for the subprocess dispatcher.
type memOutcome struct {
	DetectedAt map[string]int64 `json:"detected_at,omitempty"`
	Failed     bool             `json:"failed"`
}

// internalCoverageCampaign is the Figure 3 campaign on the engine.
type internalCoverageCampaign struct {
	campaign.JSONWire[memOutcome]
	opts                     Options
	t                        sut.Target
	golds                    []*golden
	eh                       []eaBank
	ramTargets, stackTargets []fi.MemTarget
}

func (c *internalCoverageCampaign) Name() string { return "internal-coverage" }

// memTargets enumerates the target's RAM and stack injection targets
// on a scratch rig of the first case. Cell IDs are stable across rigs
// (allocation order is fixed by construction), so one enumeration
// serves every case and variant.
func memTargets(opts Options, t sut.Target) (ram, stack []fi.MemTarget, err error) {
	scratch, err := t.Acquire(opts.Cases[0], 1, sut.Variant{})
	if err != nil {
		return nil, nil, err
	}
	defer t.Release(scratch)
	return fi.EnumerateRAMTargets(scratch.System(), scratch.Mem()), fi.EnumerateStackTargets(scratch.Mem()), nil
}

// sampledMemTargets draws the internal error model's RAM and stack
// locations, as the paper samples 150 RAM and 50 stack locations.
func sampledMemTargets(opts Options, t sut.Target, ramN, stackN int) (ram, stack []fi.MemTarget, err error) {
	if ram, stack, err = memTargets(opts, t); err != nil {
		return nil, nil, err
	}
	return fi.SampleTargets(ram, ramN, opts.Seed*7+1), fi.SampleTargets(stack, stackN, opts.Seed*7+2), nil
}

func (c *internalCoverageCampaign) Plan() ([]memJob, error) {
	var plan []memJob
	for _, tgt := range c.ramTargets {
		for ci := range c.opts.Cases {
			plan = append(plan, memJob{tgt: tgt, caseIdx: ci})
		}
	}
	for _, tgt := range c.stackTargets {
		for ci := range c.opts.Cases {
			plan = append(plan, memJob{tgt: tgt, caseIdx: ci, stack: true})
		}
	}
	return plan, nil
}

// roundStreams builds the adaptive campaign's two region streams (RAM,
// stack): profile each test case's fault-free def/use trace, collapse
// every (case, region) class of provably-masked targets into one
// weighted representative, and keep all other targets as weight-1 runs.
// A pure function of the options, so the driver and workers derive
// identical streams.
func (c *internalCoverageCampaign) roundStreams() ([][]memJob, error) {
	profs := make([]*memmap.Liveness, len(c.opts.Cases))
	for ci := range c.opts.Cases {
		l, err := livenessProfile(c.opts, c.t, c.golds[ci], sut.Variant{}, nil)
		if err != nil {
			return nil, err
		}
		profs[ci] = l
	}
	region := func(tgts []fi.MemTarget, stack bool) []memJob {
		var jobs []memJob
		collapseMasked(tgts, profs, func(tgt fi.MemTarget, ci, weight int) {
			jobs = append(jobs, memJob{tgt: tgt, caseIdx: ci, stack: stack, weight: weight})
		})
		return jobs
	}
	return [][]memJob{region(c.ramTargets, false), region(c.stackTargets, true)}, nil
}

// Execute runs one severe-model injection: periodic flips of one
// memory target, full EA bank, failure classification.
func (c *internalCoverageCampaign) Execute(_ context.Context, j memJob, _ int) (memOutcome, error) {
	g := c.golds[j.caseIdx]
	out, err := runInjection(caseRig(c.t, c.opts.Seed, g), mechanisms{banks: c.eh},
		periodic(j.tgt, c.opts.PeriodicMs), whenDone(g.horizonMs+c.opts.GraceMs))
	if err != nil {
		return memOutcome{}, err
	}
	return memOutcome{DetectedAt: out.DetectedAt[0], Failed: out.Failed}, nil
}

// newResult is the campaign's empty result.
func (c *internalCoverageCampaign) newResult(sets map[string][]string) *InternalCoverageResult {
	return &InternalCoverageResult{
		RAM:            newRegionCoverage(sets, "RAM"),
		Stack:          newRegionCoverage(sets, "Stack"),
		Total:          newRegionCoverage(sets, "Total"),
		RAMLocations:   len(c.ramTargets),
		StackLocations: len(c.stackTargets),
	}
}

func (c *internalCoverageCampaign) Reduce(plan []memJob, results []memOutcome) (*InternalCoverageResult, error) {
	sets := setMembers(c.t)
	res := c.newResult(sets)
	for i, j := range plan {
		out := results[i]
		region := &res.RAM
		if j.stack {
			region = &res.Stack
		}
		region.accumulateN(sets, out.DetectedAt, out.Failed, c.opts.PeriodicMs, j.weight)
		res.Total.accumulateN(sets, out.DetectedAt, out.Failed, c.opts.PeriodicMs, j.weight)
	}
	res.PlannedRuns = res.Total.Runs
	res.ExecutedRuns = len(plan)
	return res, nil
}

func (c *internalCoverageCampaign) ShardKey(j memJob, _ int) uint64 {
	return shardKeyFor(c.opts, c.opts.Cases[j.caseIdx])
}

func (c *internalCoverageCampaign) Describe(j memJob, _ int) string {
	region := "RAM"
	if j.stack {
		region = "stack"
	}
	return describeCase(c.t, c.opts, j.caseIdx) + " region=" + region
}

// InternalCoverage runs the Section 7 campaign: single bit-flips
// injected periodically (every opts.PeriodicMs) into sampled RAM and
// stack locations, every test case, with all assertions deployed; runs
// are classified against the failure specification so coverage can be
// split into c_tot, c_fail and c_nofail. ramLocations and stackLocations
// are the sampled location counts (the paper used 150 and 50; with 25
// cases that is the paper's 5000 runs).
// With opts.Adaptive set, each test case's fault-free run is first
// profiled for def/use liveness; targets whose corruption is provably
// unobservable collapse into one weighted representative per (case,
// region) class, and the two region streams stop sampling early once
// every set's c_tot interval is tight (docs/adaptive.md).
func InternalCoverage(ctx context.Context, opts Options, ramLocations, stackLocations int) (*InternalCoverageResult, error) {
	if opts.Adaptive {
		return internalCoverageAdaptive(ctx, opts, ramLocations, stackLocations)
	}
	c, err := newInternalCoverageCampaign(ctx, opts, ramLocations, stackLocations)
	if err != nil {
		return nil, err
	}
	return campaign.Execute[memJob, memOutcome, *InternalCoverageResult](ctx, c, opts.executor(), opts.Timings)
}

func newInternalCoverageCampaign(ctx context.Context, opts Options, ramLocations, stackLocations int) (*internalCoverageCampaign, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if ramLocations < 1 || stackLocations < 1 {
		return nil, fmt.Errorf("experiment: location counts must be >= 1")
	}
	t, err := resolvedTarget(opts)
	if err != nil {
		return nil, err
	}
	golds, err := goldens(ctx, opts, t)
	if err != nil {
		return nil, err
	}
	eh, err := ehBank(t)
	if err != nil {
		return nil, err
	}
	ram, stack, err := sampledMemTargets(opts, t, ramLocations, stackLocations)
	if err != nil {
		return nil, err
	}
	return &internalCoverageCampaign{opts: opts, t: t, golds: golds, eh: eh, ramTargets: ram, stackTargets: stack}, nil
}

func newRegionCoverage(sets map[string][]string, name string) RegionCoverage {
	rc := RegionCoverage{
		Region:         name,
		PerSet:         make(map[string]SetCoverage),
		SetLatenciesMs: make(map[string][]float64),
	}
	for set := range sets {
		rc.PerSet[set] = SetCoverage{}
	}
	return rc
}

// accumulateN folds one run into the region n times — the weighted
// accumulation behind equivalence-class pruning, where one executed
// representative stands for n provably-identical runs. n below 1 counts
// as 1 (plain accumulation).
func (rc *RegionCoverage) accumulateN(sets map[string][]string, detectedAt map[string]int64, failed bool, injectedAt int64, n int) {
	if n < 1 {
		n = 1
	}
	rc.Runs += n
	if failed {
		rc.Failures += n
	}
	for set, members := range sets {
		first := firstDetection(members, detectedAt)
		sc := rc.PerSet[set]
		sc.Tot.AddN(first >= 0, n)
		if failed {
			sc.Fail.AddN(first >= 0, n)
		} else {
			sc.NoFail.AddN(first >= 0, n)
		}
		rc.PerSet[set] = sc
		if first >= 0 {
			lat := first - injectedAt
			if lat < 0 {
				lat = 0
			}
			for i := 0; i < n; i++ {
				rc.SetLatenciesMs[set] = append(rc.SetLatenciesMs[set], float64(lat))
			}
		}
	}
}
