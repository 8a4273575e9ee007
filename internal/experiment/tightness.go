package experiment

import (
	"context"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/ea"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/sut"
)

// TightnessPoint is one setting of the EA-tightness ablation
// (DESIGN.md index A2): the pulscnt assertion's step budget against the
// coverage it buys and the false positives it costs.
type TightnessPoint struct {
	// MaxStep is the assertion's per-period step budget.
	MaxStep model.Word
	// Coverage is the detection coverage over active PACNT injections.
	Coverage stats.Proportion
	// FalsePositiveRuns counts fault-free runs (one per test case) in
	// which the assertion fired.
	FalsePositiveRuns int
	// GoldenRuns and InjectedRuns are the fault-free and injected run
	// counts of this setting.
	GoldenRuns, InjectedRuns int
}

// tightJob is one run of the tightness sweep under step setting
// stepIdx: either a fault-free run (golden) or an injection drawn from
// seed.
type tightJob struct {
	stepIdx int
	caseIdx int
	seed    int64
	golden  bool
}

// tightOutcome is one run's verdict, wire-encodable for the subprocess
// dispatcher.
type tightOutcome struct {
	Active   bool `json:"active"`
	Detected bool `json:"detected"`
}

// tightnessCampaign is the A2 ablation on the engine.
type tightnessCampaign struct {
	campaign.JSONWire[tightOutcome]
	opts    Options
	t       sut.Target
	perStep int
	steps   []model.Word
	golds   []*golden
	port    model.PortRef
	sig     *model.Signal
}

func (c *tightnessCampaign) Name() string { return "tightness" }

func (c *tightnessCampaign) Plan() ([]tightJob, error) {
	perCase := c.perStep / len(c.opts.Cases)
	if perCase < 1 {
		perCase = 1
	}
	var plan []tightJob
	for si := range c.steps {
		for ci := range c.opts.Cases {
			plan = append(plan, tightJob{stepIdx: si, caseIdx: ci, golden: true})
			for k := 0; k < perCase; k++ {
				// Identical injections across settings: the seed depends
				// on the case and iteration only, so every budget is
				// evaluated against the same error set and coverage is
				// exactly monotone in the budget.
				seed := c.t.RunSeed(c.opts.Seed, "tight", ci*1_000_000+k)
				plan = append(plan, tightJob{stepIdx: si, caseIdx: ci, seed: seed})
			}
		}
	}
	return plan, nil
}

// spec derives the swept assertion from the target's probe guard: the
// guard with its step budget replaced by the setting under test. For the
// arrestment target this reproduces the original hardcoded "EA4t"
// counter spec (EA4 with MaxStep swept).
func (c *tightnessCampaign) spec(maxStep model.Word) ea.Spec {
	spec := c.t.Probe().Guard
	spec.Name += "t"
	if spec.Kind == ea.KindCounter {
		spec.MaxStep = maxStep
	} else {
		spec.MaxUp = maxStep
		spec.MaxDown = maxStep
	}
	return spec
}

func (c *tightnessCampaign) Execute(_ context.Context, j tightJob, _ int) (tightOutcome, error) {
	g := c.golds[j.caseIdx]
	f := probeFlip(c.t, g, c.port, c.sig, j.seed, j.golden)
	bank := []eaBank{{specs: []ea.Spec{c.spec(c.steps[j.stepIdx])}}}
	out, err := runInjection(caseRig(c.t, c.opts.Seed, g), mechanisms{banks: bank}, f, atHorizon(g.horizonMs))
	if err != nil {
		return tightOutcome{}, err
	}
	return tightOutcome{Active: out.Active, Detected: len(out.DetectedAt[0]) > 0}, nil
}

func (c *tightnessCampaign) Reduce(plan []tightJob, results []tightOutcome) ([]TightnessPoint, error) {
	points := make([]TightnessPoint, len(c.steps))
	for i := range c.steps {
		points[i].MaxStep = c.steps[i]
	}
	for i, j := range plan {
		out := results[i]
		pt := &points[j.stepIdx]
		if j.golden {
			pt.GoldenRuns++
			if out.Detected {
				pt.FalsePositiveRuns++
			}
			continue
		}
		pt.InjectedRuns++
		if out.Active {
			pt.Coverage.Add(out.Detected)
		}
	}
	return points, nil
}

func (c *tightnessCampaign) ShardKey(j tightJob, _ int) uint64 {
	return shardKeyFor(c.opts, c.opts.Cases[j.caseIdx])
}

func (c *tightnessCampaign) Describe(j tightJob, _ int) string {
	return describeProbeRun(c.t, c.opts, j.caseIdx, j.seed, j.golden) + fmt.Sprintf(" step=%d", c.steps[j.stepIdx])
}

// EATightnessStudy sweeps the pulscnt assertion's MaxStep and measures,
// for each setting, (a) detection coverage for transient PACNT errors
// and (b) false positives on fault-free runs — the trade the paper's EA
// parameters navigate implicitly. perStep is the number of injections
// per setting across all cases.
func EATightnessStudy(ctx context.Context, opts Options, perStep int, steps []model.Word) ([]TightnessPoint, error) {
	c, err := newTightnessCampaign(ctx, opts, perStep, steps)
	if err != nil {
		return nil, err
	}
	return campaign.Execute[tightJob, tightOutcome, []TightnessPoint](ctx, c, opts.executor(), opts.Timings)
}

func newTightnessCampaign(ctx context.Context, opts Options, perStep int, steps []model.Word) (*tightnessCampaign, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if perStep < 1 {
		return nil, fmt.Errorf("experiment: perStep %d must be >= 1", perStep)
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("experiment: no step settings")
	}
	t, err := resolvedTarget(opts)
	if err != nil {
		return nil, err
	}
	golds, err := goldens(ctx, opts, t)
	if err != nil {
		return nil, err
	}
	port, sig, err := probePort(t)
	if err != nil {
		return nil, err
	}
	return &tightnessCampaign{
		opts: opts, t: t, perStep: perStep, steps: steps, golds: golds,
		port: port, sig: sig,
	}, nil
}
