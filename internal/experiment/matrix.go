package experiment

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/campaign"
	"repro/internal/fi"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/sut"
)

// Matrix error-model names: the paper's transient read corruption plus
// the extended menu (stuck-at memory lines, clustered multi-bit bursts,
// and scheduler timing/omission faults).
const (
	MatrixTransient = "transient"
	MatrixStuck     = "stuck"
	MatrixBurst     = "burst"
	MatrixDelay     = "delay"
	MatrixOmission  = "omission"
)

// MatrixErrorModels returns the full error-model menu of the placement
// robustness matrix, in report order.
func MatrixErrorModels() []string {
	return []string{MatrixTransient, MatrixStuck, MatrixBurst, MatrixDelay, MatrixOmission}
}

// MatrixCell is one target x error-model cell of the robustness matrix:
// how well each assertion placement (EH, PA, extended) detects that
// error model on that target.
type MatrixCell struct {
	Target string
	Model  string
	// Runs and Active count the cell's injection runs and how many
	// produced an error live before the run's natural horizon.
	Runs, Active int
	// PerSet maps placement set name -> detection coverage over active
	// errors.
	PerSet map[string]stats.Proportion
}

// MatrixResult is the placement-robustness matrix: every registered (or
// requested) target crossed with every error model.
type MatrixResult struct {
	Targets []string
	Models  []string
	// Cells is target-major, model-minor.
	Cells []MatrixCell
}

// Cell returns the named cell, or nil.
func (r *MatrixResult) Cell(target, errModel string) *MatrixCell {
	for i := range r.Cells {
		if r.Cells[i].Target == target && r.Cells[i].Model == errModel {
			return &r.Cells[i]
		}
	}
	return nil
}

// matrixJob is one matrix injection run.
type matrixJob struct {
	tIdx, mIdx, caseIdx, k int
}

// matrixOutcome is one run's verdict, wire-encodable for the subprocess
// dispatcher.
type matrixOutcome struct {
	Active     bool             `json:"active"`
	DetectedAt map[string]int64 `json:"detected_at,omitempty"`
}

// matrixCampaign crosses registered targets with the error-model menu
// on the engine. Each target runs its own default workload and horizon
// (derived per target, not from the caller's options), so cells compare
// placements under each system's natural operating conditions.
type matrixCampaign struct {
	campaign.JSONWire[matrixOutcome]
	perCell int
	models  []string
	names   []string
	targets []sut.Target
	topts   []Options // per-target derived options
	golds   [][]*golden
	ports   []model.PortRef
	sigs    []*model.Signal
	ram     [][]fi.MemTarget // per target, the stuck model's candidate locations
	eh      [][]eaBank
}

func (c *matrixCampaign) Name() string { return "matrix" }

func (c *matrixCampaign) Plan() ([]matrixJob, error) {
	var plan []matrixJob
	for ti := range c.targets {
		perCase := c.perCell / len(c.topts[ti].Cases)
		if perCase < 1 {
			perCase = 1
		}
		for mi := range c.models {
			for ci := range c.topts[ti].Cases {
				for k := 0; k < perCase; k++ {
					plan = append(plan, matrixJob{tIdx: ti, mIdx: mi, caseIdx: ci, k: k})
				}
			}
		}
	}
	return plan, nil
}

func (c *matrixCampaign) Execute(_ context.Context, j matrixJob, index int) (matrixOutcome, error) {
	t := c.targets[j.tIdx]
	topts := c.topts[j.tIdx]
	g := c.golds[j.tIdx][j.caseIdx]
	rng := runRand(t.RunSeed(topts.Seed, "matrix", index))
	out, err := runInjection(caseRig(t, topts.Seed, g), mechanisms{banks: c.eh[j.tIdx]},
		c.fault(j, rng, t.InjectWindow(g.arrestMs)), atHorizon(g.horizonMs))
	if err != nil {
		return matrixOutcome{}, err
	}
	return matrixOutcome{Active: out.Active, DetectedAt: out.DetectedAt[0]}, nil
}

// fault draws the job's error model instance from the run's generator.
func (c *matrixCampaign) fault(j matrixJob, rng *rand.Rand, window int64) fault {
	t, sig := c.targets[j.tIdx], c.sigs[j.tIdx]
	switch c.models[j.mIdx] {
	case MatrixTransient:
		return func(sut.Rig) (injector, error) {
			return fi.NewInjector(drawFlip(rng, c.ports[j.tIdx], sig, window)), nil
		}
	case MatrixStuck:
		tgts := c.ram[j.tIdx]
		return func(rig sut.Rig) (injector, error) {
			if len(tgts) == 0 {
				return nil, fmt.Errorf("experiment: target %s has no RAM cells to stick", t.Name())
			}
			return fi.NewStuckAtInjector(fi.StuckAt{
				Target: tgts[rng.Intn(len(tgts))],
				Value:  uint8(rng.Intn(2)),
				FromMs: rng.Int63n(window),
			}, rig.Bus(), rig.Mem())
		}
	case MatrixBurst:
		width := min(uint8(3), sig.Type.Width)
		return func(rig sut.Rig) (injector, error) {
			return fi.NewBurstFlipInjector(fi.BurstFlip{
				Target: fi.MemTarget{
					Kind:   fi.TargetBusSignal,
					Signal: sig.ID,
					Bit:    uint8(rng.Intn(int(sig.Type.Width-width) + 1)),
				},
				Width:  width,
				FromMs: rng.Int63n(window),
			}, rig.Bus(), rig.Mem())
		}
	case MatrixDelay, MatrixOmission:
		mode := fi.SlotDelay
		if c.models[j.mIdx] == MatrixOmission {
			mode = fi.SlotOmission
		}
		return func(rig sut.Rig) (injector, error) {
			mods := rig.System().Modules()
			from := rng.Int63n(window)
			return fi.NewSlotFaultInjector(fi.SlotFault{
				Module: mods[rng.Intn(len(mods))].ID,
				Mode:   mode,
				FromMs: from,
				// A bounded executive outage: ten control periods.
				UntilMs: from + 10*t.ControlPeriodMs(),
			}, rig.System())
		}
	}
	return func(sut.Rig) (injector, error) {
		return nil, fmt.Errorf("experiment: unknown matrix error model %q", c.models[j.mIdx])
	}
}

func (c *matrixCampaign) Reduce(plan []matrixJob, results []matrixOutcome) (*MatrixResult, error) {
	res := &MatrixResult{Targets: c.names, Models: c.models}
	cellIdx := make(map[[2]int]int)
	sets := make([]map[string][]string, len(c.targets))
	for ti, name := range c.names {
		sets[ti] = setMembers(c.targets[ti])
		for mi, m := range c.models {
			cellIdx[[2]int{ti, mi}] = len(res.Cells)
			cell := MatrixCell{Target: name, Model: m, PerSet: make(map[string]stats.Proportion)}
			for set := range sets[ti] {
				cell.PerSet[set] = stats.Proportion{}
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	for i, j := range plan {
		out := results[i]
		cell := &res.Cells[cellIdx[[2]int{j.tIdx, j.mIdx}]]
		cell.Runs++
		if !out.Active {
			continue
		}
		cell.Active++
		for set, members := range sets[j.tIdx] {
			p := cell.PerSet[set]
			p.Add(firstDetection(members, out.DetectedAt) >= 0)
			cell.PerSet[set] = p
		}
	}
	return res, nil
}

func (c *matrixCampaign) ShardKey(j matrixJob, _ int) uint64 {
	return shardKeyFor(c.topts[j.tIdx], c.topts[j.tIdx].Cases[j.caseIdx])
}

func (c *matrixCampaign) Describe(j matrixJob, index int) string {
	t, topts := c.targets[j.tIdx], c.topts[j.tIdx]
	return describeRun(t, topts, t.RunSeed(topts.Seed, "matrix", index), j.caseIdx) +
		" target=" + c.names[j.tIdx] + " model=" + c.models[j.mIdx]
}

// PlacementMatrix runs perCell injections for every requested target
// crossed with every requested error model and reports detection
// coverage per placement set in each cell. Nil targetNames selects every
// registered target; nil models selects the full error-model menu. The
// caller's options contribute the seed and scheduling; each target's
// workload and horizons come from its own registry defaults.
func PlacementMatrix(ctx context.Context, opts Options, targetNames, models []string, perCell int) (*MatrixResult, error) {
	c, err := newMatrixCampaign(ctx, opts, targetNames, models, perCell)
	if err != nil {
		return nil, err
	}
	return campaign.Execute[matrixJob, matrixOutcome, *MatrixResult](ctx, c, opts.executor(), opts.Timings)
}

func newMatrixCampaign(ctx context.Context, opts Options, targetNames, models []string, perCell int) (*matrixCampaign, error) {
	if perCell < 1 {
		return nil, fmt.Errorf("experiment: perCell %d must be >= 1", perCell)
	}
	if targetNames == nil {
		targetNames = sut.Names()
	}
	if models == nil {
		models = MatrixErrorModels()
	}
	known := make(map[string]bool)
	for _, m := range MatrixErrorModels() {
		known[m] = true
	}
	for _, m := range models {
		if !known[m] {
			return nil, fmt.Errorf("experiment: unknown error model %q (available: %v)", m, MatrixErrorModels())
		}
	}
	c := &matrixCampaign{perCell: perCell, models: models, names: targetNames}
	for _, name := range targetNames {
		t, err := sut.Lookup(name)
		if err != nil {
			return nil, err
		}
		topts := opts
		topts.Target = t.Name()
		topts.Cases = t.DefaultCases()
		d := t.Defaults()
		topts.MaxRunMs = d.MaxRunMs
		topts.TailMs = d.TailMs
		topts.GraceMs = d.GraceMs
		topts.PeriodicMs = d.PeriodicMs
		if topts.Workers < 1 {
			topts.Workers = 1
		}
		if err := topts.Validate(); err != nil {
			return nil, err
		}
		golds, err := goldens(ctx, topts, t)
		if err != nil {
			return nil, err
		}
		port, sig, err := probePort(t)
		if err != nil {
			return nil, err
		}
		ram, _, err := memTargets(topts, t)
		if err != nil {
			return nil, err
		}
		eh, err := ehBank(t)
		if err != nil {
			return nil, err
		}
		c.ram = append(c.ram, ram)
		c.eh = append(c.eh, eh)
		c.targets = append(c.targets, t)
		c.topts = append(c.topts, topts)
		c.golds = append(c.golds, golds)
		c.ports = append(c.ports, port)
		c.sigs = append(c.sigs, sig)
	}
	return c, nil
}
