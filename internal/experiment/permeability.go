package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fi"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/sut"
	"repro/internal/trace"
)

// PermeabilityResult is the outcome of the Table 1 campaign: the
// estimated permeability matrix plus the raw counts behind every entry.
type PermeabilityResult struct {
	// Matrix holds the estimates P^M_{i,k} = direct deviations / active
	// injections.
	Matrix *core.Permeability
	// Samples holds the per-edge counts (successes = direct output
	// deviations, trials = active injections of that input).
	Samples map[model.Edge]stats.Proportion
	// ActiveRuns and TotalRuns account for the campaign volume.
	ActiveRuns, TotalRuns int
	// PlannedRuns is the exact-grid size the campaign stands for; it
	// exceeds TotalRuns when adaptive early stopping ended streams
	// before the grid was exhausted.
	PlannedRuns int
}

// permJob is one permeability injection run: a bit-flip at one module
// input, evaluated against one test case's golden run. seq is the run's
// position in the exact (full-grid) plan and keys all run randomness,
// so an adaptive round executing a subset of the grid reproduces the
// exact campaign's trials bit for bit.
type permJob struct {
	mod     *model.ModuleDecl
	port    model.PortRef
	sig     model.SignalID
	caseIdx int
	seq     int
}

// permOutcome is one run's evaluation: whether the injection was active
// and which module outputs deviated directly. Fields are exported with
// JSON tags so the outcome can cross the dispatcher's wire codec.
type permOutcome struct {
	Active bool         `json:"active"`
	Direct map[int]bool `json:"direct,omitempty"` // output index -> deviated directly
}

// permeabilityCampaign is the Table 1 campaign on the engine. The
// embedded JSONWire makes its results dispatchable to worker processes.
type permeabilityCampaign struct {
	campaign.JSONWire[permOutcome]
	opts     Options
	t        sut.Target
	perInput int
	golds    []*golden
	sys      *model.System
}

func (c *permeabilityCampaign) Name() string { return "permeability" }

// perCase is how many injections each (module input, test case) pair
// receives in the exact grid.
func (c *permeabilityCampaign) perCase() int {
	perCase := c.perInput / len(c.opts.Cases)
	if perCase < 1 {
		perCase = 1
	}
	return perCase
}

// permStream is one (module, input) sampling stream: the unit at which
// adaptive early stopping decides. base is the stream's first index in
// the exact plan.
type permStream struct {
	mod  *model.ModuleDecl
	port model.PortRef
	sig  model.SignalID
	base int
}

// streams lists the campaign's sampling streams in exact-plan order.
func (c *permeabilityCampaign) streams() []permStream {
	block := c.perCase() * len(c.opts.Cases)
	var out []permStream
	for _, mod := range c.sys.Modules() {
		for _, in := range mod.Inputs {
			out = append(out, permStream{
				mod:  mod,
				port: model.PortRef{Module: mod.ID, Dir: model.DirIn, Index: in.Index},
				sig:  in.Signal,
				base: len(out) * block,
			})
		}
	}
	return out
}

func (c *permeabilityCampaign) Plan() ([]permJob, error) {
	perCase := c.perCase()
	var plan []permJob
	for _, s := range c.streams() {
		for ci := range c.opts.Cases {
			for k := 0; k < perCase; k++ {
				plan = append(plan, permJob{mod: s.mod, port: s.port, sig: s.sig, caseIdx: ci, seq: len(plan)})
			}
		}
	}
	return plan, nil
}

// roundStreams lists each stream's trials in the order adaptive rounds
// sample them: case-interleaved (consecutive trials visit consecutive
// cases), so a stream stopped early has sampled every case evenly. seq
// maps each trial back to its exact-plan slot, preserving the run's
// seed.
func (c *permeabilityCampaign) roundStreams() ([][]permJob, error) {
	numCases := len(c.opts.Cases)
	perCase := c.perCase()
	var out [][]permJob
	for _, s := range c.streams() {
		jobs := make([]permJob, perCase*numCases)
		for t := range jobs {
			ci := t % numCases
			k := t / numCases
			jobs[t] = permJob{
				mod: s.mod, port: s.port, sig: s.sig,
				caseIdx: ci, seq: s.base + ci*perCase + k,
			}
		}
		out = append(out, jobs)
	}
	return out, nil
}

// Execute runs one permeability injection and evaluates direct output
// deviations against the golden run. It simulates only the slots that
// can change the outcome: the run resumes from the latest golden
// checkpoint at or before the flip time, compares the watched signals
// with the golden trace slot by slot, and stops as soon as the outcome
// is fixed (permWatch).
func (c *permeabilityCampaign) Execute(_ context.Context, j permJob, _ int) (permOutcome, error) {
	g := c.golds[j.caseIdx]
	rng := runRand(c.t.RunSeed(c.opts.Seed, "perm", j.seq))
	sig, _ := c.sys.Signal(j.sig)
	flip := drawFlip(rng, j.port, sig, c.t.InjectWindow(g.arrestMs))
	w := &permWatch{g: g, mod: j.mod, sig: j.sig, flip: flip}
	out, err := runInjection(caseRig(c.t, c.opts.Seed, g), mechanisms{watch: w},
		injected(fi.NewInjector(flip)), whenDecided(flip.FromMs))
	if err != nil {
		return permOutcome{}, err
	}
	return w.outcome(out.Active), nil
}

func (c *permeabilityCampaign) Reduce(plan []permJob, results []permOutcome) (*PermeabilityResult, error) {
	res := &PermeabilityResult{
		Matrix:  core.NewPermeability(c.sys),
		Samples: make(map[model.Edge]stats.Proportion),
	}
	for i, job := range plan {
		out := results[i]
		res.TotalRuns++
		if !out.Active {
			continue
		}
		res.ActiveRuns++
		for _, op := range job.mod.Outputs {
			e := model.Edge{
				Module: job.mod.ID, In: job.port.Index, Out: op.Index,
				From: job.sig, To: op.Signal,
			}
			p := res.Samples[e]
			p.Add(out.Direct[op.Index])
			res.Samples[e] = p
		}
	}
	res.PlannedRuns = res.TotalRuns
	for e, p := range res.Samples {
		if err := res.Matrix.SetEdge(e, p.Estimate()); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (c *permeabilityCampaign) ShardKey(j permJob, _ int) uint64 {
	return shardKeyFor(c.opts, c.opts.Cases[j.caseIdx])
}

func (c *permeabilityCampaign) Describe(j permJob, _ int) string {
	return describeRun(c.t, c.opts, c.t.RunSeed(c.opts.Seed, "perm", j.seq), j.caseIdx) + " signal=" + string(j.sig)
}

// EstimatePermeability runs the Section 5.3 campaign on the
// reimplemented target: for every module input, inject single transient
// bit-flips at the module's reads (spread over the test cases and over
// run time), compare every module output against the golden run, and
// count only direct errors — output deviations observed before any other
// input of the module deviates, so errors that loop back through
// downstream modules are excluded.
//
// perInput is the total number of injections per module input across all
// test cases (the paper used 2000 per target signal).
//
// With opts.Adaptive set, each (module, input) stream is sampled in
// rounds and stops as soon as every outgoing edge's Wilson interval is
// tighter than the stopping rule demands; executed trials are an
// exact-plan subset, so adaptive estimates are prefix averages of the
// exact campaign's trials.
func EstimatePermeability(ctx context.Context, opts Options, perInput int) (*PermeabilityResult, error) {
	if opts.Adaptive {
		return estimatePermeabilityAdaptive(ctx, opts, perInput)
	}
	c, err := newPermeabilityCampaign(ctx, opts, perInput)
	if err != nil {
		return nil, err
	}
	return campaign.Execute[permJob, permOutcome, *PermeabilityResult](ctx, c, opts.executor(), opts.Timings)
}

// newPermeabilityCampaign validates and builds the campaign; worker
// processes rebuild the identical campaign through this same path.
func newPermeabilityCampaign(ctx context.Context, opts Options, perInput int) (*permeabilityCampaign, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if perInput < 1 {
		return nil, fmt.Errorf("experiment: perInput %d must be >= 1", perInput)
	}
	t, err := resolvedTarget(opts)
	if err != nil {
		return nil, err
	}
	golds, err := goldens(ctx, opts, t)
	if err != nil {
		return nil, err
	}
	return &permeabilityCampaign{opts: opts, t: t, perInput: perInput, golds: golds, sys: t.System()}, nil
}

// sampleRow is one edge of the samples document WriteSamples emits.
type sampleRow struct {
	Module    model.ModuleID `json:"module"`
	In        int            `json:"in"`
	Out       int            `json:"out"`
	From      model.SignalID `json:"from"`
	To        model.SignalID `json:"to"`
	Successes int            `json:"successes"`
	Trials    int            `json:"trials"`
}

type samplesDoc struct {
	PlannedRuns int         `json:"planned_runs"`
	TotalRuns   int         `json:"total_runs"`
	ActiveRuns  int         `json:"active_runs"`
	Edges       []sampleRow `json:"edges"`
}

// WriteSamples writes the campaign's per-edge counts as JSON, edges in
// deterministic order — the raw material cmd/adaptcheck uses to verify
// that exact and adaptive campaigns agree within their Wilson
// intervals.
func (r *PermeabilityResult) WriteSamples(path string) error {
	doc := samplesDoc{
		PlannedRuns: r.PlannedRuns,
		TotalRuns:   r.TotalRuns,
		ActiveRuns:  r.ActiveRuns,
	}
	for e, p := range r.Samples {
		doc.Edges = append(doc.Edges, sampleRow{
			Module: e.Module, In: e.In, Out: e.Out, From: e.From, To: e.To,
			Successes: p.Successes, Trials: p.Trials,
		})
	}
	sort.Slice(doc.Edges, func(i, j int) bool {
		a, b := doc.Edges[i], doc.Edges[j]
		if a.Module != b.Module {
			return a.Module < b.Module
		}
		if a.In != b.In {
			return a.In < b.In
		}
		return a.Out < b.Out
	})
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// stopReason records why a permeability run ended before its horizon.
type stopReason int

const (
	stopNone      stopReason = iota
	stopDecided              // the outcome can no longer change
	stopConverged            // the run rejoined its golden run
)

// permWatch evaluates a permeability run online, as a post-slot hook
// installed after the rig's own hooks. Every slot it compares the
// watched signals with the golden trace in the domain the trace was
// recorded in (Bus.PeekIdx) and records each signal's first deviation,
// exactly what trace.FirstDifference would find on a recorded trace.
// It ends the run once the outcome is fixed:
//   - inactive: the flip was not applied before the golden completion
//     point, so it can only apply later or never;
//   - decided: a cutoff input has deviated (outputs that have not
//     deviated yet can no longer count as direct), or every output has
//     deviated (each is direct, since no cutoff came first);
//   - converged: at a golden checkpoint instant after the flip was
//     applied, the rig's full state equals the checkpoint. The flip is
//     spent and every other hook only observes, so the rest of the run
//     is the golden run and no signal deviates again.
type permWatch struct {
	g    *golden
	mod  *model.ModuleDecl
	sig  model.SignalID // the injected input
	flip *fi.ReadFlip

	rig   sut.Rig
	idx   []int            // dense bus index per watched signal
	gold  [][]trace.Sample // golden samples per watched signal
	first []int            // first deviating sample per watched signal
	outs  int              // watched[:outs] are mod's outputs in port order, the rest cutoff inputs

	deviated int  // outputs deviated so far
	cut      bool // a cutoff input has deviated
	stop     stopReason
}

// bind resolves the watch on the run's rig: it watches the module's
// outputs plus its other pure inputs (inputs that are neither the
// injected signal nor also outputs), the cutoff signals of the
// direct-errors-only rule. The lists are sized once from the module's
// port counts: idx and first share one allocation, gold has another.
func (w *permWatch) bind(rig sut.Rig) {
	w.rig, w.outs = rig, len(w.mod.Outputs)
	sys := rig.System()
	n := w.outs + len(w.mod.Inputs) // at least the watched signals
	ints := make([]int, 2*n)
	w.idx, w.first, w.gold = ints[:0:n], ints[n:n], make([][]trace.Sample, 0, n)
	watch := func(s model.SignalID) {
		i, _ := sys.SignalIndex(s)
		w.idx = append(w.idx, i)
		w.gold = append(w.gold, w.g.trace.Samples(s))
		w.first = append(w.first, trace.NoDifference)
	}
	for _, op := range w.mod.Outputs {
		watch(op.Signal)
	}
	for _, in := range w.mod.Inputs {
		if in.Signal != w.sig && !writes(w.mod, in.Signal) {
			watch(in.Signal)
		}
	}
}

// writes reports whether s is one of the module's outputs.
func writes(mod *model.ModuleDecl, s model.SignalID) bool {
	for _, op := range mod.Outputs {
		if op.Signal == s {
			return true
		}
	}
	return false
}

func (w *permWatch) hook(nowMs int64) {
	k := int(nowMs)
	bus := w.rig.Bus()
	for i, idx := range w.idx {
		if w.first[i] == trace.NoDifference && trace.Peek(bus, idx) != w.gold[i][k] {
			w.first[i] = k
			if i < w.outs {
				w.deviated++
			} else {
				w.cut = true
			}
		}
	}
	next := nowMs + 1
	applied, at := w.flip.Applied()
	switch {
	case !applied && next < w.g.arrestMs:
		// The flip may still apply in time; nothing can have deviated.
	case !applied || at >= w.g.arrestMs || w.cut || w.deviated == w.outs:
		w.stop = stopDecided
	case next%goldenCheckpointMs == 0:
		if cp := w.g.checkpointAt(next); cp != nil && cp.AtMs() == next && w.rig.Matches(cp) {
			w.stop = stopConverged
		}
	}
}

func (w *permWatch) decided() bool { return w.stop != stopNone }

// outcome applies the direct-errors-only rule to the recorded first
// deviations of an active run: an output deviated directly if it
// deviated no later than the earliest cutoff-input deviation.
func (w *permWatch) outcome(active bool) permOutcome {
	out := permOutcome{Active: active, Direct: make(map[int]bool, len(w.mod.Outputs))}
	if !active {
		return out
	}
	cutoff := -1
	for _, fd := range w.first[w.outs:] {
		if fd != trace.NoDifference && (cutoff < 0 || fd < cutoff) {
			cutoff = fd
		}
	}
	for i, op := range w.mod.Outputs {
		fd := w.first[i]
		out.Direct[op.Index] = fd != trace.NoDifference && (cutoff < 0 || fd <= cutoff)
	}
	return out
}
