package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"repro/internal/analytic"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fi"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/physics"
	"repro/internal/sut"
	"repro/internal/trace"
)

// Shares of a traced run's budget: the workload untraced, the workload
// traced, then the layer probes every traced run makes alike.
const (
	shareUntraced = 0.25
	shareTraced   = 0.25
	shareRunLayer = 0.18
	shareCampaign = 0.09
	shareDispatch = 0.14
	shareAnalytic = 0.09
)

// probeCases are the test cases (indices into the target's cases) the
// per-run layer probes use: light to heavy arrestments, each with the
// seed of its Table 1 unit.
var probeCases = []int{0, 9, 15, 24}

// tracedRun measures the per-layer metrics. The workload runs untraced
// and then with telemetry on (spans kept in memory); the difference is
// the tracing overhead. Probes then time each layer through its public
// hooks, by difference against a bare run where the layer is a hook.
func tracedRun(ctx context.Context, w *workload, seed int64, budget time.Duration, m map[string]metric) (*loopResult, error) {
	share := func(f float64) time.Duration { return time.Duration(f * float64(budget)) }

	// The workload untraced, with its allocation and GC counts.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	plain := runLoop(ctx, w.units, share(shareUntraced), 3, nil)
	runtime.ReadMemStats(&after)
	done := int64(plain.opsDone())
	m["runtime.alloc_kb_per_op"] = metric{ratio(int64(after.TotalAlloc-before.TotalAlloc), done) / 1024, "KB"}
	m["runtime.gc_cycles_per_kop"] = metric{ratio(int64(after.NumGC-before.NumGC), done) * 1000, "count"}
	runtime.GC()
	runtime.ReadMemStats(&after)
	m["runtime.heap_live_mb"] = metric{float64(after.HeapAlloc) / (1 << 20), "MB"}
	m["host.raw_ops_per_s"] = metric{plain.rawOpsPerSec(), "1/s"}
	m["host.slow_share"] = metric{plain.slowShare(), "ratio"}

	// The same units with telemetry on.
	tel, _ := installTelemetry()
	hits0, miss0 := tel.GoldenHits.Value(), tel.GoldenMisses.Value()
	tr := runTimed(ctx, w, share(shareTraced))
	traced, prelude := tr.loop, tr.preludeUs
	hits, miss := tel.GoldenHits.Value()-hits0, tel.GoldenMisses.Value()-miss0
	obs.Install(nil)
	overhead := 0.0
	if t := traced.opsPerSec(); t > 0 {
		overhead = 100 * (plain.opsPerSec()/t - 1)
	}
	m["obs.overhead_pct"] = metric{overhead, "%"}
	m["experiment.golden_hit_ratio"] = metric{ratio(hits, hits+miss), "ratio"}

	if err := goldenProbe(ctx, seed, m); err != nil {
		return nil, err
	}
	if err := runLayerProbe(seed, share(shareRunLayer), m); err != nil {
		return nil, err
	}
	if err := comparesProbe(ctx, seed, m); err != nil {
		return nil, err
	}
	campPrelude, sharded, err := campaignProbe(ctx, seed, share(shareCampaign), m)
	if err != nil {
		return nil, err
	}
	if prelude < 0 {
		// Placement queries run no campaign: the prelude is the
		// campaign probe's.
		prelude = campPrelude
	}
	m["experiment.prelude_us"] = metric{prelude, "us"}
	// The dispatch probe runs fig3-subproc units, each checked byte
	// for byte against the in-process executor: its failures count.
	dispatched, err := dispatchProbe(ctx, seed, share(shareDispatch), m)
	if err != nil {
		return nil, err
	}
	if err := analyticProbe(ctx, seed, share(shareAnalytic), m); err != nil {
		return nil, err
	}
	return mergeLoops(plain, traced, sharded, dispatched), nil
}

// installTelemetry turns telemetry on with the span log kept in memory.
func installTelemetry() (*obs.Telemetry, *bytes.Buffer) {
	log := &bytes.Buffer{}
	tel := obs.New(obs.Config{EventSink: log})
	obs.Install(tel)
	return tel, log
}

// opsDone counts the ops of every repetition that ran.
func (r *loopResult) opsDone() int {
	n := 0
	for i, st := range r.stats {
		n += st.reps * r.units[i].ops
	}
	return n
}

// mergeLoops folds the correctness accounting of several loops.
func mergeLoops(loops ...*loopResult) *loopResult {
	out := &loopResult{}
	for _, l := range loops {
		out.units = append(out.units, l.units...)
		out.stats = append(out.stats, l.stats...)
		out.attempted += l.attempted
		out.failed += l.failed
	}
	return out
}

// timedLoop is a loop run with the engine's timing collector attached.
type timedLoop struct {
	loop *loopResult
	// preludeUs is the mean over units of the fastest (call time −
	// engine-observed campaign time); negative when no campaign ran.
	preludeUs float64
	// execS is the engine-observed campaign time of every call.
	execS float64
}

// runTimed runs a workload's loop with a fresh engine timing collector
// per call.
func runTimed(ctx context.Context, w *workload, budget time.Duration) timedLoop {
	var tr timedLoop
	mins := make([]time.Duration, len(w.units))
	units := make([]unit, len(w.units))
	for i := range w.units {
		i, u := i, w.units[i]
		call := u.call
		u.call = func(ctx context.Context) (any, error) {
			w.timings = campaign.NewCollector()
			t0 := time.Now()
			out, err := call(ctx)
			d := time.Since(t0)
			rows := w.timings.Rows()
			for _, row := range rows {
				d -= time.Duration(row.WallS * float64(time.Second))
				tr.execS += row.WallS
			}
			if len(rows) > 0 && (mins[i] == 0 || d < mins[i]) {
				mins[i] = d
			}
			return out, err
		}
		units[i] = u
	}
	tr.loop = runLoop(ctx, units, budget, 3, nil)
	w.timings = nil
	var sum time.Duration
	for _, d := range mins {
		if d == 0 {
			tr.preludeUs = -1
			return tr
		}
		sum += d
	}
	tr.preludeUs = us(sum) / float64(len(mins))
	return tr
}

// goldenProbe: the cold fill of one golden run, mean over the Table 1
// cases of the per-item minimum.
func goldenProbe(ctx context.Context, seed int64, m map[string]metric) error {
	w, err := table1Workload(ctx, seed)
	if err != nil {
		return err
	}
	clock, err := setupTime(w.setup, setupPasses, experiment.ClearGoldenCache)
	if err != nil {
		return err
	}
	m["experiment.golden_ms"] = metric{ms(clock.total()) / float64(len(w.setup)), "ms"}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// probeRun is one per-run probe configuration: the hooks it attaches to
// an acquired rig before the run.
type probeRun struct {
	name   string
	attach func(rig sut.Rig, pc *probeCase) error
}

// probeCase is one test case of the run-layer probe with its golden
// horizon and the permeability watch set its recorder uses.
type probeCase struct {
	tc      sut.Case
	seed    int64
	horizon int64
	watch   []model.SignalID
	port    model.PortRef
}

// runLayerProbe times one injection run's cost centres on a few test
// cases: rig acquisition, a bare run over the golden horizon, and the
// marginal cost of each layer's hook (trace recorder, read-flip
// injector, EA bank, periodic memory injector), each the difference of
// minimum-over-repetition times. Injectors are armed past the horizon,
// so they cost their hook checks without changing the run.
func runLayerProbe(seed int64, budget time.Duration, m map[string]metric) error {
	t, err := sut.Lookup(sut.DefaultTarget)
	if err != nil {
		return err
	}
	d := t.Defaults()
	streams := permStreams(t.System())
	cases := t.DefaultCases()
	var pcs []*probeCase
	for k, ci := range probeCases {
		pc := &probeCase{tc: cases[ci], seed: unitSeed(seed, ci)}
		rig, err := t.Acquire(pc.tc, t.CaseSeed(pc.seed, pc.tc), sut.Variant{})
		if err != nil {
			return err
		}
		if _, err := rig.RunUntilDone(d.MaxRunMs); err != nil {
			return err
		}
		if err := rig.RunFor(d.TailMs); err != nil {
			return err
		}
		pc.horizon = rig.Sched().NowMs()
		t.Release(rig)
		s := streams[(k*len(streams)/len(probeCases))%len(streams)]
		pc.watch, pc.port = s.watch, s.port
		pcs = append(pcs, pc)
	}

	var assertions int
	configs := []probeRun{
		{"bare", func(sut.Rig, *probeCase) error { return nil }},
		{"record", func(rig sut.Rig, pc *probeCase) error {
			rig.Sched().OnPostSlot(trace.NewRecorder(rig.Bus(), pc.watch, 1, pc.horizon).Hook)
			return nil
		}},
		{"readflip", func(rig sut.Rig, pc *probeCase) error {
			inj := fi.NewInjector(&fi.ReadFlip{Port: pc.port, FromMs: pc.horizon + 1})
			rig.Sched().OnPreSlot(inj.Hook)
			rig.Bus().OnRead(inj.ReadHook())
			return nil
		}},
		{"ea", func(rig sut.Rig, pc *probeCase) error {
			bank, err := sut.NewBank(t, rig, t.EHSet())
			if err != nil {
				return err
			}
			assertions = len(bank.Assertions())
			rig.Sched().OnPostSlot(bank.Hook)
			return nil
		}},
		{"periodic", func(rig sut.Rig, pc *probeCase) error {
			tgts := fi.EnumerateRAMTargets(rig.System(), rig.Mem())
			if len(tgts) == 0 {
				return fmt.Errorf("no RAM targets")
			}
			pi, err := fi.NewPeriodicInjector(tgts[0], d.PeriodicMs, pc.horizon+1, rig.Bus(), rig.Mem())
			if err != nil {
				return err
			}
			rig.Sched().OnPreSlot(pi.Hook)
			rig.Mem().OnRead(pi.MemHook())
			return nil
		}},
	}

	// mins[case][config]; acquire and physics minima alongside.
	mins := make([][]time.Duration, len(pcs))
	for i := range mins {
		mins[i] = make([]time.Duration, len(configs))
	}
	var acquire, step time.Duration
	const steps = 1000
	plant := physics.New(physics.DefaultParams(pcs[0].tc.P1, pcs[0].tc.P2, pcs[0].seed))
	keep := func(dst *time.Duration, d time.Duration) {
		if *dst == 0 || d < *dst {
			*dst = d
		}
	}
	deadline := time.Now().Add(budget)
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		for i, pc := range pcs {
			for j, cfg := range configs {
				t0 := time.Now()
				rig, err := t.Acquire(pc.tc, t.CaseSeed(pc.seed, pc.tc), sut.Variant{})
				if err != nil {
					return err
				}
				if j == 0 {
					keep(&acquire, time.Since(t0))
				}
				if err := cfg.attach(rig, pc); err != nil {
					t.Release(rig)
					return fmt.Errorf("probe %s: %w", cfg.name, err)
				}
				t0 = time.Now()
				err = rig.RunFor(pc.horizon)
				keep(&mins[i][j], time.Since(t0))
				t.Release(rig)
				if err != nil {
					return err
				}
			}
		}
		plant.Reset(plant.Params())
		t0 := time.Now()
		for k := 0; k < steps; k++ {
			plant.StepMs(1)
		}
		keep(&step, time.Since(t0))
	}

	marginal := func(j int) float64 {
		var sum time.Duration
		for i := range pcs {
			sum += mins[i][j] - mins[i][0]
		}
		return ms(sum) / float64(len(pcs))
	}
	var bare time.Duration
	for i := range pcs {
		bare += mins[i][0]
	}
	m["sut.acquire_us"] = metric{us(acquire), "us"}
	m["sched.run_ms"] = metric{ms(bare) / float64(len(pcs)), "ms"}
	m["physics.step_us"] = metric{us(step) / steps, "us"}
	m["trace.record_ms_per_run"] = metric{marginal(1), "ms"}
	m["fi.readflip_ms_per_run"] = metric{marginal(2), "ms"}
	m["ea.eval_ms_per_run"] = metric{marginal(3), "ms"}
	m["ea.assertions"] = metric{float64(assertions), "count"}
	m["fi.periodic_ms_per_run"] = metric{marginal(4), "ms"}

	slotCount, err := countSlots(t, pcs)
	if err != nil {
		return err
	}
	m["sched.slots_per_run"] = metric{slotCount, "count"}
	return compareProbe(t, pcs[len(pcs)-1], m)
}

// countSlots counts the scheduler slots of a bare run, mean over cases.
func countSlots(t sut.Target, pcs []*probeCase) (float64, error) {
	var n int64
	for _, pc := range pcs {
		rig, err := t.Acquire(pc.tc, t.CaseSeed(pc.seed, pc.tc), sut.Variant{})
		if err != nil {
			return 0, err
		}
		rig.Sched().OnPreSlot(func(int64) { n++ })
		err = rig.RunFor(pc.horizon)
		t.Release(rig)
		if err != nil {
			return 0, err
		}
	}
	return float64(n) / float64(len(pcs)), nil
}

// compareProbe times the golden-run comparison: first-difference scans
// over two identical recordings (the full-length worst case), per
// compared signal.
func compareProbe(t sut.Target, pc *probeCase, m map[string]metric) error {
	record := func() (*trace.Trace, error) {
		rig, err := t.Acquire(pc.tc, t.CaseSeed(pc.seed, pc.tc), sut.Variant{})
		if err != nil {
			return nil, err
		}
		defer t.Release(rig)
		rec := trace.NewRecorder(rig.Bus(), t.AllSignals(), 1, pc.horizon)
		rig.Sched().OnPostSlot(rec.Hook)
		return rec.Trace(), rig.RunFor(pc.horizon)
	}
	a, err := record()
	if err != nil {
		return err
	}
	b, err := record()
	if err != nil {
		return err
	}
	sigs := t.AllSignals()
	best, err := minOf(50, func() error {
		for _, s := range sigs {
			if trace.FirstDifference(a, b, s) != trace.NoDifference {
				return fmt.Errorf("recordings of one seed differ on %s", s)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["trace.compare_us"] = metric{us(best) / float64(len(sigs)), "us"}
	return nil
}

// permStream is one module input of the permeability campaign: the
// port a Table 1 injection flips, the signals its run records, and the
// golden comparisons an active run makes (module outputs plus the
// module's other pure inputs).
type permStream struct {
	mod      *model.ModuleDecl
	in       int
	port     model.PortRef
	watch    []model.SignalID
	compares int
}

func permStreams(sys *model.System) []permStream {
	var out []permStream
	for _, mod := range sys.Modules() {
		outputs := map[model.SignalID]bool{}
		var outSigs []model.SignalID
		for _, op := range mod.Outputs {
			outputs[op.Signal] = true
			outSigs = append(outSigs, op.Signal)
		}
		for _, in := range mod.Inputs {
			watch := append([]model.SignalID(nil), outSigs...)
			for _, other := range mod.Inputs {
				if other.Signal != in.Signal && !outputs[other.Signal] {
					watch = append(watch, other.Signal)
				}
			}
			out = append(out, permStream{
				mod:      mod,
				in:       in.Index,
				port:     model.PortRef{Module: mod.ID, Dir: model.DirIn, Index: in.Index},
				watch:    dedup(watch),
				compares: len(watch),
			})
		}
	}
	return out
}

func dedup(in []model.SignalID) []model.SignalID {
	seen := map[model.SignalID]bool{}
	var out []model.SignalID
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// comparesProbe: golden comparisons per Table 1 run, from the active
// trials per module input of the Table 1 units.
func comparesProbe(ctx context.Context, seed int64, m map[string]metric) error {
	w, err := table1Workload(ctx, seed)
	if err != nil {
		return err
	}
	t, err := sut.Lookup(sut.DefaultTarget)
	if err != nil {
		return err
	}
	streams := permStreams(t.System())
	var compares, runs int
	for _, u := range w.units {
		out, err := u.call(ctx)
		if err != nil {
			return err
		}
		res := out.(*experiment.PermeabilityResult)
		runs += res.TotalRuns
		for _, s := range streams {
			e := model.Edge{Module: s.mod.ID, In: s.in, Out: s.mod.Outputs[0].Index,
				From: s.mod.Inputs[s.in-1].Signal, To: s.mod.Outputs[0].Signal}
			compares += res.Samples[e].Trials * s.compares
		}
	}
	m["trace.compares_per_run"] = metric{float64(compares) / float64(runs), "count"}
	return nil
}

// warmed builds a workload and runs its set-up once, untimed, so its
// caches are filled before a probe times anything.
func warmed(ctx context.Context, name string, seed int64) (*workload, error) {
	w, err := buildWorkload(ctx, name, seed, nil)
	if err != nil {
		return nil, err
	}
	for _, it := range w.setup {
		if err := it.fill(); err != nil {
			return nil, err
		}
	}
	return w, w.crossCheck(ctx)
}

// campaignProbe: the sharded executor under telemetry — shard wall
// time percentiles and the share of worker time spent idle — plus the
// campaign prelude. It returns the probe's loop, whose failed ops
// count against the traced run's.
func campaignProbe(ctx context.Context, seed int64, budget time.Duration, m map[string]metric) (float64, *loopResult, error) {
	w, err := warmed(ctx, "fig3-sharded", seed)
	if err != nil {
		return 0, nil, err
	}
	tel, _ := installTelemetry()
	defer obs.Install(nil)
	tr := runTimed(ctx, w, budget)
	var shardS float64
	for _, s := range tel.Reg.Snapshot() {
		if s.Name == "repro_shard_duration_seconds" {
			shardS = s.Sum
		}
	}
	m["campaign.shard_ms_p50"] = metric{1000 * tel.ShardDur.Quantile(0.50), "ms"}
	m["campaign.shard_ms_p99"] = metric{1000 * tel.ShardDur.Quantile(0.99), "ms"}
	m["campaign.worker_idle_share"] = metric{1 - shardS/(fig3Workers*tr.execS), "ratio"}
	return tr.preludeUs, tr.loop, nil
}

// dispatchProbe: the subprocess dispatcher under telemetry. Queue,
// exec and net time come from the dispatcher's own dispatch.shard span
// attributes; bytes, golden build time and memory from the workers'
// reports; spawn time is timed directly.
func dispatchProbe(ctx context.Context, seed int64, budget time.Duration, m map[string]metric) (*loopResult, error) {
	w, err := warmed(ctx, "fig3-subproc", seed)
	if err != nil {
		return nil, err
	}
	var spawn time.Duration
	for i := 0; i < 5; i++ {
		d, err := spawnTime(w.workerCmd, w.workerEnv)
		if err != nil {
			return nil, err
		}
		if i == 0 || d < spawn {
			spawn = d
		}
	}
	w.stats.take()
	tel, log := installTelemetry()
	retries0, integrity0 := tel.DispatchRetries.Value(), tel.DispatchIntegrity.Value()
	res := runLoop(ctx, w.units, budget, 3, nil)
	retries, integrity := tel.DispatchRetries.Value()-retries0, tel.DispatchIntegrity.Value()-integrity0
	obs.Install(nil)
	tel.Close()

	var shards, runs int
	attr := map[string]float64{}
	sc := bufio.NewScanner(log)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var e obs.Event
		if json.Unmarshal(sc.Bytes(), &e) != nil || e.Kind != "span" || e.Name != "dispatch.shard" {
			continue
		}
		shards++
		n, _ := strconv.Atoi(e.Attrs["runs"])
		runs += n
		for _, k := range []string{"queue_ms", "exec_ms", "net_ms"} {
			v, _ := strconv.ParseFloat(e.Attrs[k], 64)
			attr[k] += v
		}
	}
	reports := w.stats.take()
	if shards == 0 || runs == 0 || len(reports) == 0 {
		return nil, fmt.Errorf("dispatch probe saw %d shards, %d runs, %d worker reports", shards, runs, len(reports))
	}
	var bytesIO, goldenNs int64
	var rss float64
	for _, r := range reports {
		bytesIO += r.BytesIn + r.BytesOut
		goldenNs += r.GoldenNs
		rss = math.Max(rss, r.PeakRSSMB)
	}
	m["dispatch.spawn_ms"] = metric{ms(spawn), "ms"}
	m["dispatch.queue_ms"] = metric{attr["queue_ms"] / float64(shards), "ms"}
	m["dispatch.exec_ms"] = metric{attr["exec_ms"] / float64(shards), "ms"}
	m["dispatch.net_ms"] = metric{attr["net_ms"] / float64(shards), "ms"}
	m["dispatch.payload_bytes_per_run"] = metric{float64(bytesIO) / float64(runs), "B"}
	m["dispatch.worker_golden_ms"] = metric{float64(goldenNs) / 1e6 / float64(len(reports)), "ms"}
	m["dispatch.retries"] = metric{float64(retries), "count"}
	m["dispatch.integrity_failures"] = metric{float64(integrity), "count"}
	m["dispatch.worker_rss_mb"] = metric{rss, "MB"}
	return res, nil
}

// analyticProbe: the placement queries' per-unit minima, the tree
// engine's two halves, and the memo cache's hit ratio on an
// incremental re-solve.
func analyticProbe(ctx context.Context, seed int64, budget time.Duration, m map[string]metric) error {
	w, err := warmed(ctx, "place-analytic", seed)
	if err != nil {
		return err
	}
	res := runLoop(ctx, w.units, budget, 3, nil)
	if f := res.failures(); len(f) > 0 {
		return fmt.Errorf("analytic probe: %v", f)
	}
	byName := map[string]time.Duration{}
	for i, u := range w.units {
		byName[u.name] = res.stats[i].minWall
	}
	pl := w.place
	var pr *core.Profile
	build, err := minOf(50, func() (err error) {
		pr, err = core.BuildProfile(pl.table1)
		return err
	})
	if err != nil {
		return err
	}
	selectPA, err := minOf(200, func() error {
		core.SelectPA(pr, core.DefaultThresholds())
		return nil
	})
	if err != nil {
		return err
	}
	e := analytic.New()
	if _, err := e.Profile(pl.grid12); err != nil {
		return err
	}
	s0 := e.Stats()
	scaled, err := pl.grid12.ScaleModule(pl.incMod, pl.incFactor)
	if err != nil {
		return err
	}
	if _, err := e.Profile(scaled); err != nil {
		return err
	}
	s1 := e.Stats()
	hits, misses := s1.Hits-s0.Hits, s1.Misses-s0.Misses

	for _, size := range []string{"table1", "grid8x6", "grid12x8"} {
		m["analytic.profile_ms."+size] = metric{ms(byName["place-analytic/profile-"+size]), "ms"}
	}
	m["analytic.incremental_ms"] = metric{ms(byName["place-analytic/incremental-grid12x8"]), "ms"}
	m["analytic.sweep_ms"] = metric{ms(byName["place-analytic/sweep-table1"]), "ms"}
	m["analytic.row_hit_ratio"] = metric{ratio(int64(hits), int64(hits+misses)), "ratio"}
	m["core.build_profile_ms"] = metric{ms(build), "ms"}
	m["core.select_pa_us"] = metric{us(selectPA), "us"}
	return nil
}
