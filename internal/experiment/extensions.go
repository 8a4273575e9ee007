package experiment

import (
	"context"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/erm"
	"repro/internal/fi"
	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/sut"
)

// ModelSensitivityResult compares detection coverage across input error
// models (DESIGN.md index A1): the paper shows its conclusions are
// error-model dependent for internal errors; this probes the same
// question on the sensor side.
type ModelSensitivityResult struct {
	// Models lists the evaluated error models in evaluation order.
	Models []string
	// PerModel maps model -> assertion set -> coverage over active
	// errors.
	PerModel map[string]map[string]stats.Proportion
	// ActivePerModel counts active errors per model.
	ActivePerModel map[string]int
	// TotalRuns counts all injection runs across models.
	TotalRuns int
}

// sensitivityModels returns the evaluated corruption templates.
func sensitivityModels() []fi.Corruption {
	return []fi.Corruption{
		{Kind: fi.CorruptTransient},
		{Kind: fi.CorruptStuckAt0},
		{Kind: fi.CorruptStuckAt1},
		{Kind: fi.CorruptBurst, BurstWidth: 3},
		{Kind: fi.CorruptIntermittent, PeriodReads: 5},
	}
}

// sensJob is one error-model sensitivity run.
type sensJob struct {
	modelIdx int
	caseIdx  int
}

// sensOutcome is one sensitivity run's detections, wire-encodable for
// the subprocess dispatcher.
type sensOutcome struct {
	Active     bool             `json:"active"`
	DetectedAt map[string]int64 `json:"detected_at,omitempty"`
}

// sensitivityCampaign is the A1 extension on the engine.
type sensitivityCampaign struct {
	campaign.JSONWire[sensOutcome]
	opts     Options
	t        sut.Target
	perModel int
	models   []fi.Corruption
	golds    []*golden
	port     model.PortRef
	sig      *model.Signal
	eh       []eaBank
}

func (c *sensitivityCampaign) Name() string { return "model-sensitivity" }

func (c *sensitivityCampaign) Plan() ([]sensJob, error) {
	perCase := c.perModel / len(c.opts.Cases)
	if perCase < 1 {
		perCase = 1
	}
	var plan []sensJob
	for mi := range c.models {
		for ci := range c.opts.Cases {
			for k := 0; k < perCase; k++ {
				plan = append(plan, sensJob{modelIdx: mi, caseIdx: ci})
			}
		}
	}
	return plan, nil
}

func (c *sensitivityCampaign) Execute(_ context.Context, j sensJob, index int) (sensOutcome, error) {
	rng := runRand(c.t.RunSeed(c.opts.Seed, "modsens", index))
	corr := c.models[j.modelIdx]
	corr.Port = c.port
	g := c.golds[j.caseIdx]
	corr.FromMs = rng.Int63n(c.t.InjectWindow(g.arrestMs))
	switch corr.Kind {
	case fi.CorruptBurst:
		corr.Bit = uint8(rng.Intn(int(c.sig.Type.Width) - int(corr.BurstWidth) + 1))
	default:
		corr.Bit = uint8(rng.Intn(int(c.sig.Type.Width)))
	}
	out, err := runInjection(caseRig(c.t, c.opts.Seed, g), mechanisms{banks: c.eh},
		func(rig sut.Rig) (injector, error) { return fi.NewCorruptionInjector(corr, rig.Bus()) },
		atHorizon(g.horizonMs))
	if err != nil {
		return sensOutcome{}, err
	}
	return sensOutcome{Active: out.Active, DetectedAt: out.DetectedAt[0]}, nil
}

func (c *sensitivityCampaign) Reduce(plan []sensJob, results []sensOutcome) (*ModelSensitivityResult, error) {
	res := &ModelSensitivityResult{
		PerModel:       make(map[string]map[string]stats.Proportion, len(c.models)),
		ActivePerModel: make(map[string]int, len(c.models)),
		TotalRuns:      len(plan),
	}
	sets := setMembers(c.t)
	for _, m := range c.models {
		res.Models = append(res.Models, m.Kind.String())
		props := make(map[string]stats.Proportion, len(sets))
		for set := range sets {
			props[set] = stats.Proportion{}
		}
		res.PerModel[m.Kind.String()] = props
	}
	for i, j := range plan {
		out := results[i]
		if !out.Active {
			continue
		}
		name := c.models[j.modelIdx].Kind.String()
		res.ActivePerModel[name]++
		for set, members := range sets {
			p := res.PerModel[name][set]
			p.Add(firstDetection(members, out.DetectedAt) >= 0)
			res.PerModel[name][set] = p
		}
	}
	return res, nil
}

func (c *sensitivityCampaign) ShardKey(j sensJob, _ int) uint64 {
	return shardKeyFor(c.opts, c.opts.Cases[j.caseIdx])
}

func (c *sensitivityCampaign) Describe(j sensJob, index int) string {
	return describeRun(c.t, c.opts, c.t.RunSeed(c.opts.Seed, "modsens", index), j.caseIdx) +
		" model=" + c.models[j.modelIdx].Kind.String()
}

// ErrorModelSensitivity injects perModel errors into the target's probe
// input (for the arrestment system, PACNT — the one input whose errors
// are detectable at all) under each error model and measures EH/PA
// coverage.
func ErrorModelSensitivity(ctx context.Context, opts Options, perModel int) (*ModelSensitivityResult, error) {
	c, err := newSensitivityCampaign(ctx, opts, perModel)
	if err != nil {
		return nil, err
	}
	return campaign.Execute[sensJob, sensOutcome, *ModelSensitivityResult](ctx, c, opts.executor(), opts.Timings)
}

func newSensitivityCampaign(ctx context.Context, opts Options, perModel int) (*sensitivityCampaign, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if perModel < 1 {
		return nil, fmt.Errorf("experiment: perModel %d must be >= 1", perModel)
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
	eh, err := ehBank(t)
	if err != nil {
		return nil, err
	}
	return &sensitivityCampaign{
		opts: opts, t: t, perModel: perModel, models: sensitivityModels(),
		golds: golds, port: port, sig: sig, eh: eh,
	}, nil
}

// RecoveryArm is one arm of the recovery study.
type RecoveryArm struct {
	Runs, Failures int
	// Recoveries counts wrapper substitutions (wrapped arm only).
	Recoveries int
}

// FailureRate returns the arm's failure fraction.
func (a RecoveryArm) FailureRate() float64 {
	if a.Runs == 0 {
		return 0
	}
	return float64(a.Failures) / float64(a.Runs)
}

// RecoveryRegion compares outcomes per region across three arms: no
// recovery, signal-level containment wrappers (write filters on the
// PA-selected signals), and module-internal containment (a hardened
// DIST_S that rejects implausible pulse deltas — guideline R2 applied
// inside the most failure-prone module).
type RecoveryRegion struct {
	Region                      string
	Baseline, Wrapped, Hardened RecoveryArm
}

// RecoveryStudyResult quantifies how much the R2-placed containment
// wrappers reduce specification failures under the internal error model.
type RecoveryStudyResult struct {
	RAM, Stack, Total RecoveryRegion
	// RAMLocations and StackLocations echo the sampled campaign size.
	RAMLocations, StackLocations int
}

// recJob is one recovery-study run: one memory target, one case, one
// arm (0 baseline, 1 wrapped, 2 hardened). weight is the def/use
// equivalence class size the run stands for (0 and 1 mean itself).
type recJob struct {
	tgt     fi.MemTarget
	caseIdx int
	stack   bool
	arm     int
	weight  int
}

// recOutcome is one recovery run's verdict, wire-encodable for the
// subprocess dispatcher.
type recOutcome struct {
	Failed     bool `json:"failed"`
	Recoveries int  `json:"recoveries,omitempty"`
}

// recoveryCampaign is the A5 extension on the engine.
type recoveryCampaign struct {
	campaign.JSONWire[recOutcome]
	opts                     Options
	t                        sut.Target
	specs                    []erm.Spec
	golds                    []*golden
	ramTargets, stackTargets []fi.MemTarget
}

func (c *recoveryCampaign) Name() string { return "recovery" }

func (c *recoveryCampaign) Plan() ([]recJob, error) {
	if c.opts.Adaptive {
		return c.prunedPlan()
	}
	var plan []recJob
	add := func(tgts []fi.MemTarget, stack bool) {
		for _, tgt := range tgts {
			for ci := range c.opts.Cases {
				for arm := 0; arm < 3; arm++ {
					plan = append(plan, recJob{tgt: tgt, caseIdx: ci, stack: stack, arm: arm})
				}
			}
		}
	}
	add(c.ramTargets, false)
	add(c.stackTargets, true)
	return plan, nil
}

// prunedPlan is the adaptive plan: every (case, arm, region) set of
// provably-masked targets collapses into one weighted representative.
// Each arm gets its own fault-free liveness profile — the wrapped and
// hardened configurations may trace memory differently — so masking is
// judged against the exact configuration the run would execute.
// Deterministic: parent and workers derive the identical plan, so the
// dispatch plan-hash handshake holds.
func (c *recoveryCampaign) prunedPlan() ([]recJob, error) {
	// One profile per (case, arm) class, in the plan's inner-loop order.
	profs := make([]*memmap.Liveness, len(c.opts.Cases)*3)
	for arm := 0; arm < 3; arm++ {
		v, ws := c.arm(arm)
		for ci := range c.opts.Cases {
			l, err := livenessProfile(c.opts, c.t, c.golds[ci], v, ws)
			if err != nil {
				return nil, err
			}
			profs[ci*3+arm] = l
		}
	}
	var plan []recJob
	add := func(tgts []fi.MemTarget, stack bool) {
		collapseMasked(tgts, profs, func(tgt fi.MemTarget, k, weight int) {
			plan = append(plan, recJob{tgt: tgt, caseIdx: k / 3, stack: stack, arm: k % 3, weight: weight})
		})
	}
	add(c.ramTargets, false)
	add(c.stackTargets, true)
	return plan, nil
}

// PlannedRuns reports the exact grid size the campaign stands for, so
// the engine's timing row shows the pruning savings.
func (c *recoveryCampaign) PlannedRuns() int {
	return (len(c.ramTargets) + len(c.stackTargets)) * len(c.opts.Cases) * 3
}

// arm returns what one arm of the study deploys: the wrapped arm (1)
// the containment wrappers, the hardened arm (2) the hardened build.
func (c *recoveryCampaign) arm(arm int) (sut.Variant, []erm.Spec) {
	if arm == 1 {
		return sut.Variant{}, c.specs
	}
	return sut.Variant{Hardened: arm == 2}, nil
}

// Execute runs one internal-model injection under the job's arm and
// classifies the outcome.
func (c *recoveryCampaign) Execute(_ context.Context, j recJob, _ int) (recOutcome, error) {
	g := c.golds[j.caseIdx]
	r := caseRig(c.t, c.opts.Seed, g)
	var ws []erm.Spec
	r.variant, ws = c.arm(j.arm)
	out, err := runInjection(r, mechanisms{wrappers: ws}, periodic(j.tgt, c.opts.PeriodicMs),
		whenDone(g.horizonMs+c.opts.GraceMs))
	if err != nil {
		return recOutcome{}, err
	}
	return recOutcome{Failed: out.Failed, Recoveries: out.Recoveries}, nil
}

func (c *recoveryCampaign) Reduce(plan []recJob, results []recOutcome) (*RecoveryStudyResult, error) {
	res := &RecoveryStudyResult{
		RAM:            RecoveryRegion{Region: "RAM"},
		Stack:          RecoveryRegion{Region: "Stack"},
		Total:          RecoveryRegion{Region: "Total"},
		RAMLocations:   len(c.ramTargets),
		StackLocations: len(c.stackTargets),
	}
	for i, j := range plan {
		out := results[i]
		regions := []*RecoveryRegion{&res.Total, &res.RAM}
		if j.stack {
			regions[1] = &res.Stack
		}
		w := j.weight
		if w < 1 {
			w = 1
		}
		for _, region := range regions {
			arm := &region.Baseline
			switch j.arm {
			case 1:
				arm = &region.Wrapped
			case 2:
				arm = &region.Hardened
			}
			arm.Runs += w
			if out.Failed {
				arm.Failures += w
			}
			arm.Recoveries += w * out.Recoveries
		}
	}
	return res, nil
}

func (c *recoveryCampaign) ShardKey(j recJob, _ int) uint64 {
	return shardKeyFor(c.opts, c.opts.Cases[j.caseIdx])
}

func (c *recoveryCampaign) Describe(j recJob, _ int) string {
	arm := [...]string{"baseline", "wrapped", "hardened"}[j.arm]
	return describeCase(c.t, c.opts, j.caseIdx) + " arm=" + arm
}

// RecoveryStudy runs the internal error model three times over the same
// sampled locations — without recovery, with the containment wrappers,
// and with the hardened DIST_S — and compares failure rates. specs
// defaults to the target's ERMSpecs() when nil.
func RecoveryStudy(ctx context.Context, opts Options, ramLocations, stackLocations int, specs []erm.Spec) (*RecoveryStudyResult, error) {
	c, err := newRecoveryCampaign(ctx, opts, ramLocations, stackLocations, specs)
	if err != nil {
		return nil, err
	}
	return campaign.Execute[recJob, recOutcome, *RecoveryStudyResult](ctx, c, opts.executor(), opts.Timings)
}

func newRecoveryCampaign(ctx context.Context, opts Options, ramLocations, stackLocations int, specs []erm.Spec) (*recoveryCampaign, error) {
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
	if specs == nil {
		specs = t.ERMSpecs()
	}
	golds, err := goldens(ctx, opts, t)
	if err != nil {
		return nil, err
	}
	ram, stack, err := sampledMemTargets(opts, t, ramLocations, stackLocations)
	if err != nil {
		return nil, err
	}
	return &recoveryCampaign{opts: opts, t: t, specs: specs, golds: golds, ramTargets: ram, stackTargets: stack}, nil
}
