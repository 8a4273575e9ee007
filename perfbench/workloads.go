package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"repro/internal/analytic"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/paper"
	"repro/internal/sut"
)

// Workload sizes. A unit is one call of a few milliseconds; the unit
// lists are fixed, so every seed does the same amount of work.
const (
	table1PerInput = 1 // injections per module input in a one-case Table 1 unit
	table1Stride   = 3 // Table 1 units take every third test case
	fig3RAM        = 1 // RAM locations per Figure 3 unit
	fig3Stack      = 1 // stack locations per Figure 3 unit
	fig3Workers    = 2 // workers of the Figure 3 executors
	subprocStride  = 3 // fig3-subproc takes every third Figure 3 unit
	setupPasses    = 5 // set-up passes before a timed loop
)

// workerFlag makes the benchmark binary serve as a dispatch worker.
const workerFlag = "--mode=worker"

// workload is one benchmark workload built from a seed: its unit list
// and its set-up.
type workload struct {
	name  string
	units []unit
	// setup lists the cold set-up steps, timed over setupPasses passes
	// before the timed loop and one pass after each of its cycles;
	// reset runs before each pass.
	setup []item
	reset func()
	// stats collects worker-process reports; workerCmd and workerEnv
	// start one worker (subprocess workloads only).
	stats                *workerStats
	workerCmd, workerEnv []string
	// timings, when set, receives the engine's timing row of every
	// campaign call (traced runs only).
	timings *campaign.Collector
	// place holds the place-analytic inputs.
	place *placement
}

var workloadNames = []string{"table1-serial", "fig3-sharded", "fig3-subproc", "place-analytic"}

// buildWorkload builds the named workload for a seed. ref holds the
// reference digests, applied only at the default seed.
func buildWorkload(ctx context.Context, name string, seed int64, ref map[string]string) (*workload, error) {
	var w *workload
	var err error
	switch name {
	case "table1-serial":
		w, err = table1Workload(ctx, seed)
	case "fig3-sharded":
		w, err = fig3Workload(ctx, seed, false)
	case "fig3-subproc":
		w, err = fig3Workload(ctx, seed, true)
	case "place-analytic":
		w, err = analyticWorkload(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	// A stored reference takes the place of a cross-check digest: where
	// the two differ, the cross-checked workload fails on its own.
	for i := range w.units {
		if d, ok := ref[w.units[i].name]; ok {
			w.units[i].want = d
		}
	}
	return w, nil
}

// unitSeed derives the campaign seed of unit i from the workload seed.
func unitSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// digest hashes a canonical rendering of a unit's output.
func digest(v any) (string, error) {
	if res, ok := v.(*experiment.PermeabilityResult); ok {
		v = permRows(res)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// campaignOpts is the default-target campaign configuration of one
// unit, with the default shard count.
func campaignOpts(seed int64, cases []sut.Case, workers int) experiment.Options {
	opts := experiment.DefaultOptions(seed)
	opts.Cases = cases
	opts.Workers = workers
	return opts
}

// goldenItem is the cold golden-cache fill of one test case under a
// unit's options. It goes through the worker-side campaign lookup,
// the one public path that computes reference runs without injecting.
func goldenItem(ctx context.Context, opts experiment.Options, tc sut.Case) (item, error) {
	spec := experiment.WorkerSpec{Options: opts, PerInput: 1}
	spec.Options.Cases = []sut.Case{tc}
	spec.Options.Workers = 1
	enc, err := spec.Encode()
	if err != nil {
		return item{}, err
	}
	return item{
		name: fmt.Sprintf("golden seed=%d case=%d", opts.Seed, tc.ID),
		fill: func() error {
			// LookupFromSpec installs worker telemetry when none is
			// active; put the previous state back.
			prev := obs.Active()
			defer obs.Install(prev)
			lookup, err := experiment.LookupFromSpec(ctx, enc)
			if err != nil {
				return err
			}
			_, err = lookup("permeability")
			return err
		},
	}, nil
}

// table1Workload: Table 1 permeability injections on the serial
// executor, one unit per test case.
func table1Workload(ctx context.Context, seed int64) (*workload, error) {
	t, err := sut.Lookup(sut.DefaultTarget)
	if err != nil {
		return nil, err
	}
	inputs := 0
	for _, m := range t.System().Modules() {
		inputs += len(m.Inputs)
	}
	w := &workload{name: "table1-serial", reset: experiment.ClearGoldenCache}
	cases := t.DefaultCases()
	for i := 0; i < len(cases); i += table1Stride {
		tc := cases[i]
		opts := campaignOpts(unitSeed(seed, i), []sut.Case{tc}, 1)
		w.units = append(w.units, unit{
			name: fmt.Sprintf("table1-serial/case%02d", tc.ID),
			ops:  inputs * table1PerInput,
			call: func(ctx context.Context) (any, error) {
				o := opts
				o.Timings = w.timings
				return experiment.EstimatePermeability(ctx, o, table1PerInput)
			},
		})
		it, err := goldenItem(ctx, opts, tc)
		if err != nil {
			return nil, err
		}
		w.setup = append(w.setup, it)
	}
	return w, nil
}

// permRow is one edge of a permeability result in canonical order.
type permRow struct {
	Module    model.ModuleID
	In, Out   int
	Successes int
	Trials    int
}

// permRows renders a permeability result canonically.
func permRows(res *experiment.PermeabilityResult) []any {
	var rows []permRow
	for e, p := range res.Samples {
		rows = append(rows, permRow{e.Module, e.In, e.Out, p.Successes, p.Trials})
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Module != b.Module {
			return a.Module < b.Module
		}
		if a.In != b.In {
			return a.In < b.In
		}
		return a.Out < b.Out
	})
	return []any{res.TotalRuns, res.ActiveRuns, rows}
}

// fig3Pairs pairs test case i with case i+⌈n/2⌉, so the units cover
// every case once (and one twice) whatever the seed. The partner moves
// on when both would land in one shard, so that both workers get one.
func fig3Pairs(seed int64, cases []sut.Case, d sut.Defaults) [][]sut.Case {
	n := len(cases)
	half := (n + 1) / 2
	pairs := make([][]sut.Case, half)
	for i := range pairs {
		s := unitSeed(seed, i)
		j := (i + half) % n
		for k := 0; k < n && (j == i || shardOf(s, cases[j], d) == shardOf(s, cases[i], d)); k++ {
			j = (j + 1) % n
		}
		pairs[i] = []sut.Case{cases[i], cases[j]}
	}
	return pairs
}

// shardOf mirrors the campaign engine's shard assignment of a test
// case: FNV-1a over the golden-run identity, modulo the default shard
// count. It only balances the units; correctness never depends on it.
func shardOf(seed int64, tc sut.Case, d sut.Defaults) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%v|%v|%d|%d", seed, tc.ID, tc.P1, tc.P2, d.MaxRunMs, d.TailMs)
	return h.Sum64() % campaign.DefaultShards
}

// fig3Workload: Figure 3 internal-model injections (exact) with two
// workers, in process on campaign.Sharded or across worker processes
// on dispatch.Subprocess.
func fig3Workload(ctx context.Context, seed int64, subproc bool) (*workload, error) {
	t, err := sut.Lookup(sut.DefaultTarget)
	if err != nil {
		return nil, err
	}
	name := "fig3-sharded"
	if subproc {
		name = "fig3-subproc"
	}
	w := &workload{name: name, reset: experiment.ClearGoldenCache}
	if subproc {
		w.stats = newWorkerStats()
	}
	for i, pair := range fig3Pairs(seed, t.DefaultCases(), t.Defaults()) {
		if subproc && i%subprocStride != 0 {
			continue
		}
		opts := campaignOpts(unitSeed(seed, i), pair, fig3Workers)
		for _, tc := range pair {
			it, err := goldenItem(ctx, opts, tc)
			if err != nil {
				return nil, err
			}
			w.setup = append(w.setup, it)
		}
		u := unit{
			name: fmt.Sprintf("%s/unit%02d", name, i),
			ops:  len(pair) * (fig3RAM + fig3Stack),
		}
		if subproc {
			// The in-process result is what the dispatched one must
			// equal byte for byte.
			res, err := experiment.InternalCoverage(ctx, opts, fig3RAM, fig3Stack)
			if err != nil {
				return nil, fmt.Errorf("%s in process: %w", u.name, err)
			}
			if u.want, err = digest(res); err != nil {
				return nil, err
			}
			spec := experiment.WorkerSpec{RAMLocations: fig3RAM, StackLocations: fig3Stack}
			if err := experiment.SelfDispatch(&opts, spec, workerFlag, "", 0, 0, nil); err != nil {
				return nil, err
			}
			if len(opts.Dispatch.Command) == 0 {
				return nil, fmt.Errorf("cannot resolve the benchmark binary for worker processes")
			}
			opts.Dispatch.WorkerStderr = w.stats
			w.workerCmd, w.workerEnv = opts.Dispatch.Command, opts.Dispatch.Env
		}
		u.call = func(ctx context.Context) (any, error) {
			o := opts
			o.Timings = w.timings
			return experiment.InternalCoverage(ctx, o, fig3RAM, fig3Stack)
		}
		w.units = append(w.units, u)
	}
	return w, nil
}

// placement holds the place-analytic inputs, rebuilt by its set-up,
// and the seeded what-if of its incremental query.
type placement struct {
	table1, grid8, grid12 *core.Permeability
	incMod                model.ModuleID
	incFactor             float64
}

// jitter scales every permeability strictly between 0 and 1 by a
// seeded factor in [0.98, 1]: seed-specific values with the same
// structure and the same solver work. Zero and one stay exact: the
// solver settles a path of weight 1 at once, while one just below 1
// takes thousands of series terms. The spread is kept small for the
// same reason: the series converges more slowly as weights grow.
func jitter(p *core.Permeability, rng *rand.Rand) error {
	for _, e := range p.System().Edges() {
		f := 0.98 + 0.02*rng.Float64()
		if v := p.Get(e); v > 0 && v < 1 {
			if err := p.SetEdge(e, v*f); err != nil {
				return err
			}
		}
	}
	return nil
}

// ranking renders what a placement query decides: the signal order
// under each metric and the PA selection.
func ranking(pr *core.Profile) []any {
	var out []any
	for _, m := range []core.Metric{core.ByExposure, core.ByImpact, core.ByCriticality} {
		var ids []model.SignalID
		for _, sp := range pr.Ranked(m) {
			ids = append(ids, sp.Signal)
		}
		out = append(out, ids)
	}
	return append(out, core.SelectPA(pr, core.DefaultThresholds()).Selected())
}

// analyticWorkload: placement queries, no simulation — the tree engine
// and the analytic engine on the paper's Table 1 matrix and on
// synthetic grids of two sizes.
func analyticWorkload(seed int64) (*workload, error) {
	pl := &placement{}
	build := func(name string, mk func() *core.Permeability, dst **core.Permeability, salt int64) item {
		return item{name: name, fill: func() error {
			p := mk()
			if err := jitter(p, rand.New(rand.NewSource(seed*31+salt))); err != nil {
				return err
			}
			*dst = p
			return nil
		}}
	}
	grid := func(l, wd int) func() *core.Permeability {
		return func() *core.Permeability { _, p := analytic.Grid(l, wd); return p }
	}
	w := &workload{
		name: "place-analytic",
		setup: []item{
			build("matrix table1", paper.Table1, &pl.table1, 1),
			build("system grid8x6", grid(8, 6), &pl.grid8, 2),
			build("system grid12x8", grid(12, 8), &pl.grid12, 3),
		},
	}
	rng := rand.New(rand.NewSource(seed))
	pl.incMod = model.ModuleID(fmt.Sprintf("M_0_%d", rng.Intn(8)))
	pl.incFactor = 0.3 + 0.4*rng.Float64()
	w.place = pl
	factors := []float64{0, 0.5, 1.5}

	profile := func(name string, p **core.Permeability) unit {
		return unit{name: "place-analytic/profile-" + name, ops: 1, call: func(context.Context) (any, error) {
			pr, err := analytic.New().Profile(*p)
			if err != nil {
				return nil, err
			}
			return ranking(pr), nil
		}}
	}
	var warm *analytic.Engine
	w.units = []unit{
		{name: "place-analytic/tree-table1", ops: 1, call: func(context.Context) (any, error) {
			pr, err := core.BuildProfile(pl.table1)
			if err != nil {
				return nil, err
			}
			return ranking(pr), nil
		}},
		profile("table1", &pl.table1),
		profile("grid8x6", &pl.grid8),
		profile("grid12x8", &pl.grid12),
		{name: "place-analytic/sweep-table1", ops: 1, call: func(context.Context) (any, error) {
			var mods []model.ModuleID
			for _, m := range pl.table1.System().Modules() {
				mods = append(mods, m.ID)
			}
			res, err := analytic.Sweep(analytic.New(), pl.table1, mods, factors, 1)
			if err != nil {
				return nil, err
			}
			// Deltas are rounded: the solver is exact to 1e-12, not
			// to the last bit.
			var cells []string
			for _, c := range res.Cells {
				cells = append(cells, fmt.Sprintf("%s×%g:%s:%.6f", c.Module, c.Factor, c.Top, c.Delta))
			}
			return cells, nil
		}},
		{
			name: "place-analytic/incremental-grid12x8",
			ops:  1,
			prepare: func() error {
				warm = analytic.New()
				_, err := warm.Profile(pl.grid12)
				return err
			},
			call: func(context.Context) (any, error) {
				scaled, err := pl.grid12.ScaleModule(pl.incMod, pl.incFactor)
				if err != nil {
					return nil, err
				}
				pr, err := warm.Profile(scaled)
				if err != nil {
					return nil, err
				}
				return ranking(pr), nil
			},
		},
	}
	return w, nil
}

// crossCheck binds the analytic Table 1 query to the tree query's
// output: both engines must rank and select identically. Run it after
// set-up.
func (w *workload) crossCheck(ctx context.Context) error {
	if w.name != "place-analytic" || w.units[1].want != "" {
		return nil
	}
	out, err := w.units[0].call(ctx)
	if err != nil {
		return err
	}
	w.units[1].want, err = digest(out)
	return err
}
