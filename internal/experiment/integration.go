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

// IntegrationPoint compares the two EA integration modes for one
// assertion: periodic bus sampling (our monitoring-task deployment)
// versus write-triggered checking (the paper's inline deployment).
type IntegrationPoint struct {
	// Sampled and WriteTriggered are detection coverages over the same
	// active PACNT error set, at the deployed step budget (16, sized for
	// sampling-period slot jitter).
	Sampled, WriteTriggered stats.Proportion
	// TightInline is write-triggered checking with the budget tightened
	// to the true per-write legitimate maximum (8 pulses) — possible
	// only inline, where scheduler jitter cannot stretch the check gap.
	TightInline stats.Proportion
	// TightInlineFalsePositives counts golden runs where the tight
	// inline assertion fired (it must stay zero for the tightening to
	// be admissible).
	TightInlineFalsePositives int
	// GoldenRuns and InjectedRuns are the fault-free and injected run
	// counts.
	GoldenRuns, InjectedRuns int
}

// integJob is one integration-study run: either the case's fault-free
// run or an injection drawn from seed.
type integJob struct {
	caseIdx int
	seed    int64
	golden  bool
}

// integOutcome is one run's verdict under all three banks,
// wire-encodable for the subprocess dispatcher.
type integOutcome struct {
	Golden  bool `json:"golden"`
	Active  bool `json:"active"`
	Sampled bool `json:"sampled"`
	Inlined bool `json:"inlined"`
	TightOn bool `json:"tight_on"`
}

// integrationCampaign is the EA-integration study on the engine.
type integrationCampaign struct {
	campaign.JSONWire[integOutcome]
	opts      Options
	t         sut.Target
	perSignal int
	golds     []*golden
	port      model.PortRef
	sig       *model.Signal
	// banks deploys the probe guard sampled, the same guard inline, and
	// the tightened guard inline.
	banks []eaBank
}

func (c *integrationCampaign) Name() string { return "integration" }

func (c *integrationCampaign) Plan() ([]integJob, error) {
	perCase := c.perSignal / len(c.opts.Cases)
	if perCase < 1 {
		perCase = 1
	}
	var plan []integJob
	for ci := range c.opts.Cases {
		plan = append(plan, integJob{caseIdx: ci, golden: true})
		for k := 0; k < perCase; k++ {
			plan = append(plan, integJob{caseIdx: ci, seed: c.t.RunSeed(c.opts.Seed, "integ", ci*1_000_000+k)})
		}
	}
	return plan, nil
}

// Execute runs one injection (or the fault-free run) against all
// three pulscnt deployments at once.
func (c *integrationCampaign) Execute(_ context.Context, j integJob, _ int) (integOutcome, error) {
	g := c.golds[j.caseIdx]
	out, err := runInjection(caseRig(c.t, c.opts.Seed, g), mechanisms{banks: c.banks},
		probeFlip(c.t, g, c.port, c.sig, j.seed, j.golden), atHorizon(g.horizonMs))
	if err != nil {
		return integOutcome{}, err
	}
	return integOutcome{
		Golden:  j.golden,
		Active:  out.Active,
		Sampled: len(out.DetectedAt[0]) > 0,
		Inlined: len(out.DetectedAt[1]) > 0,
		TightOn: len(out.DetectedAt[2]) > 0,
	}, nil
}

func (c *integrationCampaign) Reduce(_ []integJob, results []integOutcome) (*IntegrationPoint, error) {
	var pt IntegrationPoint
	for _, out := range results {
		if out.Golden {
			pt.GoldenRuns++
			if out.TightOn {
				pt.TightInlineFalsePositives++
			}
			continue
		}
		pt.InjectedRuns++
		if !out.Active {
			continue
		}
		pt.Sampled.Add(out.Sampled)
		pt.WriteTriggered.Add(out.Inlined)
		pt.TightInline.Add(out.TightOn)
	}
	return &pt, nil
}

func (c *integrationCampaign) ShardKey(j integJob, _ int) uint64 {
	return shardKeyFor(c.opts, c.opts.Cases[j.caseIdx])
}

func (c *integrationCampaign) Describe(j integJob, _ int) string {
	return describeProbeRun(c.t, c.opts, j.caseIdx, j.seed, j.golden)
}

// EAIntegrationStudy measures how much detection the sampling
// deployment loses to sub-period self-correcting transients, by running
// identical PACNT injections against a sampled and a write-triggered
// pulscnt assertion simultaneously. It quantifies the Table 4 deviation
// discussed in EXPERIMENTS.md (our 0.868 vs the paper's 0.975).
func EAIntegrationStudy(ctx context.Context, opts Options, perSignal int) (*IntegrationPoint, error) {
	c, err := newIntegrationCampaign(ctx, opts, perSignal)
	if err != nil {
		return nil, err
	}
	return campaign.Execute[integJob, integOutcome, *IntegrationPoint](ctx, c, opts.executor(), opts.Timings)
}

func newIntegrationCampaign(ctx context.Context, opts Options, perSignal int) (*integrationCampaign, error) {
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
	golds, err := goldens(ctx, opts, t)
	if err != nil {
		return nil, err
	}
	port, sig, err := probePort(t)
	if err != nil {
		return nil, err
	}

	// The sampled/inline arms deploy the probe guard as published; the
	// tight arm halves its step budget to the per-write legitimate
	// maximum (for the arrestment target: EA4's 16 pulses per period
	// down to 8, the hardcoded pre-seam value).
	ea4 := t.Probe().Guard
	tight := ea4
	tight.Name += "i"
	if tight.Kind == ea.KindCounter {
		tight.MaxStep /= 2
	} else {
		tight.MaxUp /= 2
		tight.MaxDown /= 2
	}

	return &integrationCampaign{
		opts: opts, t: t, perSignal: perSignal, golds: golds, port: port, sig: sig,
		banks: []eaBank{{specs: []ea.Spec{ea4}}, {specs: []ea.Spec{ea4}, inline: true}, {specs: []ea.Spec{tight}, inline: true}},
	}, nil
}
