package experiment

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/campaign"
	"repro/internal/fi"
	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sut"
	"repro/internal/trace"
)

// permeabilityRunOracle evaluates one permeability run the plain way:
// simulate the whole golden horizon from t=0, record the watched
// signals, then compare each recorded column with the golden trace via
// trace.FirstDifference. The checkpointed, early-stopping campaign
// run (permeabilityCampaign.Execute) must agree with it on every run.
func permeabilityRunOracle(opts Options, t sut.Target, g *golden, mod *model.ModuleDecl, port model.PortRef, sig model.SignalID, index int) (permOutcome, error) {
	var out permOutcome
	rng := rand.New(rand.NewSource(t.RunSeed(opts.Seed, "perm", index)))

	rig, err := t.Acquire(g.tc, t.CaseSeed(opts.Seed, g.tc), sut.Variant{})
	if err != nil {
		return out, err
	}
	defer t.Release(rig)

	s, _ := rig.System().Signal(sig)
	flip := drawFlip(rng, port, s, t.InjectWindow(g.arrestMs))
	inj := fi.NewInjector(flip)
	rig.Sched().OnPreSlot(inj.Hook)
	rig.Bus().OnRead(inj.ReadHook())

	// Record the module's outputs plus its other pure inputs (inputs
	// that are not also outputs): the cutoff signals of the
	// direct-errors-only rule.
	outputs := make(map[model.SignalID]bool, len(mod.Outputs))
	for _, op := range mod.Outputs {
		outputs[op.Signal] = true
	}
	var watch, cutoffSigs []model.SignalID
	for _, op := range mod.Outputs {
		watch = append(watch, op.Signal)
	}
	for _, in := range mod.Inputs {
		if in.Signal == sig || outputs[in.Signal] {
			continue
		}
		watch = append(watch, in.Signal)
		cutoffSigs = append(cutoffSigs, in.Signal)
	}
	slices.Sort(watch)
	watch = slices.Compact(watch)

	rec := trace.NewRecorder(rig.Bus(), watch, 1, g.horizonMs)
	rig.Sched().OnPostSlot(rec.Hook)
	if err := rig.RunFor(g.horizonMs); err != nil {
		return out, err
	}

	applied, at := flip.Applied()
	out.Active = applied && at < g.arrestMs
	out.Direct = make(map[int]bool, len(mod.Outputs))
	if !out.Active {
		return out, nil
	}
	ir := rec.Trace()
	cutoff := -1 // sample index of the earliest other-input deviation
	for _, s := range cutoffSigs {
		if fd := trace.FirstDifference(g.trace, ir, s); fd != trace.NoDifference {
			if cutoff < 0 || fd < cutoff {
				cutoff = fd
			}
		}
	}
	for _, op := range mod.Outputs {
		fd := trace.FirstDifference(g.trace, ir, op.Signal)
		out.Direct[op.Index] = fd != trace.NoDifference && (cutoff < 0 || fd <= cutoff)
	}
	return out, nil
}

// oracleOpts is a reduced configuration of a registered target: a few
// cases, and for targets without a completion criterion a horizon
// capped at maxRunMs so the full-horizon oracle stays cheap.
func oracleOpts(t *testing.T, name string, seed, maxRunMs int64) Options {
	t.Helper()
	opts, err := DefaultOptionsFor(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	opts.Cases = opts.Cases[:min(3, len(opts.Cases))]
	opts.Workers = 1
	if name != sut.DefaultTarget {
		opts.MaxRunMs = min(opts.MaxRunMs, maxRunMs)
	}
	return opts
}

// requireOracleAgreement runs every job through the checkpointed,
// early-stopping path and through the oracle and requires identical
// outcomes.
func requireOracleAgreement(t *testing.T, c *permeabilityCampaign, jobs []permJob) {
	t.Helper()
	actives := 0
	for _, j := range jobs {
		got, err := c.Execute(context.Background(), j, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := permeabilityRunOracle(c.opts, c.t, c.golds[j.caseIdx], j.mod, j.port, j.sig, j.seq)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run seq=%d case=%d %s<-%s: got %+v, oracle %+v",
				j.seq, j.caseIdx, j.mod.ID, j.sig, got, want)
		}
		if got.Active {
			actives++
		}
	}
	if actives == 0 {
		t.Errorf("no active run among %d: the comparison proved nothing", len(jobs))
	}
}

func TestPermeabilityRunMatchesOracle(t *testing.T) {
	for _, name := range []string{"arrestment", "tank", "multiout"} {
		for _, seed := range []int64{1, 7, 23} {
			opts := oracleOpts(t, name, seed, 12_000)
			c, err := newPermeabilityCampaign(context.Background(), opts, 4*len(opts.Cases))
			if err != nil {
				t.Fatal(err)
			}
			t.Run(name+"/exact", func(t *testing.T) {
				plan, err := c.Plan()
				if err != nil {
					t.Fatal(err)
				}
				requireOracleAgreement(t, c, plan)
			})
			t.Run(name+"/adaptive", func(t *testing.T) {
				// A later round of the adaptive plan: each stream's
				// trials from cursor 3 on, case-interleaved.
				streams, err := c.roundStreams()
				if err != nil {
					t.Fatal(err)
				}
				cursors := make([]int, len(streams))
				for i := range cursors {
					cursors[i] = 3
				}
				rc, err := newRound[permJob, permOutcome](c, streams,
					AdaptiveRound{Campaign: c.Name(), Cursors: cursors, Done: make([]bool, len(streams)), Batch: 5})
				if err != nil {
					t.Fatal(err)
				}
				requireOracleAgreement(t, c, rc.jobs)
			})
		}
	}
}

// TestGoldenCheckpointRoundTrip restores every golden checkpoint into
// a fresh rig and runs it to the horizon: the recorded suffix must be
// the golden trace's, on every signal.
func TestGoldenCheckpointRoundTrip(t *testing.T) {
	for _, name := range []string{"arrestment", "tank", "multiout"} {
		t.Run(name, func(t *testing.T) {
			opts := oracleOpts(t, name, 5, 4_000)
			tgt, err := resolvedTarget(opts)
			if err != nil {
				t.Fatal(err)
			}
			g, err := recordGolden(opts, tgt, opts.Cases[0])
			if err != nil {
				t.Fatal(err)
			}
			if want := int(g.horizonMs / goldenCheckpointMs); len(g.cps) != want {
				t.Fatalf("%d checkpoints over a %d ms horizon, want %d", len(g.cps), g.horizonMs, want)
			}
			for i, cp := range g.cps {
				at := cp.AtMs()
				if at != int64(i+1)*goldenCheckpointMs {
					t.Fatalf("checkpoint %d stands for %d ms", i, at)
				}
				rig, err := tgt.Acquire(g.tc, tgt.CaseSeed(opts.Seed, g.tc), sut.Variant{})
				if err != nil {
					t.Fatal(err)
				}
				rig.Restore(cp)
				if !rig.Matches(cp) {
					t.Fatalf("rig restored from checkpoint %d does not match it", i)
				}
				rec := trace.NewRecorder(rig.Bus(), tgt.AllSignals(), 1, g.horizonMs)
				rig.Sched().OnPostSlot(rec.Hook)
				if err := rig.RunFor(g.horizonMs - at); err != nil {
					t.Fatal(err)
				}
				for _, s := range tgt.AllSignals() {
					want := g.trace.Samples(s)[at:]
					if got := rec.Trace().Samples(s); !slices.Equal(got, want) {
						t.Fatalf("from checkpoint %d (%d ms): %s first differs at sample %d",
							i, at, s, firstMismatch(got, want))
					}
				}
				tgt.Release(rig)
			}
		})
	}
}

// A golden run retains its checkpoints for the rest of the process, so
// their state must stay small: at most 256 KB per default arrestment
// case (saved words, plus the generator copies of the noise keyframes
// the checkpoints share).
func TestGoldenCheckpointMemory(t *testing.T) {
	const limit = 256 << 10
	opts := DefaultOptions(1)
	tgt, err := resolvedTarget(opts)
	if err != nil {
		t.Fatal(err)
	}
	most := 0
	for _, tc := range opts.Cases {
		g, err := recordGolden(opts, tgt, tc)
		if err != nil {
			t.Fatal(err)
		}
		n := sut.RetainedBytes(g.cps)
		if n > limit {
			t.Errorf("case %d: %d checkpoints retain %d bytes, want <= %d", tc.ID, len(g.cps), n, limit)
		}
		most = max(most, n)
	}
	t.Logf("largest golden checkpoint state: %d bytes", most)
}

// A golden run retains its trace for the rest of the process, so the
// trace must hold only what was recorded: every column of every default
// case's golden is exactly Len() samples long, and the 14 columns lie
// back to back in one allocation.
func TestGoldenTraceMemory(t *testing.T) {
	opts := DefaultOptions(1)
	tgt, err := resolvedTarget(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range opts.Cases {
		g, err := recordGolden(opts, tgt, tc)
		if err != nil {
			t.Fatal(err)
		}
		n := g.trace.Len()
		sigs := g.trace.Signals()
		base := unsafe.Pointer(unsafe.SliceData(g.trace.Samples(sigs[0])))
		for i, s := range sigs {
			col := g.trace.Samples(s)
			if len(col) != n || cap(col) != n {
				t.Fatalf("case %d: %s column has len %d, cap %d; want both %d", tc.ID, s, len(col), cap(col), n)
			}
			if unsafe.Pointer(unsafe.SliceData(col)) != unsafe.Add(base, i*n*int(unsafe.Sizeof(col[0]))) {
				t.Fatalf("case %d: %s column is not at offset %d of the golden's one allocation", tc.ID, s, i*n)
			}
		}
	}
}

func firstMismatch(a, b []trace.Sample) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestCheckpointMatchesGoldenRun replays a golden run: the rig matches
// every checkpoint at its instant, and no longer does once one live RAM
// cell is flipped.
func TestCheckpointMatchesGoldenRun(t *testing.T) {
	opts := oracleOpts(t, sut.DefaultTarget, 3, 0)
	tgt, err := resolvedTarget(opts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := recordGolden(opts, tgt, opts.Cases[1])
	if err != nil {
		t.Fatal(err)
	}
	rig, err := tgt.Acquire(g.tc, tgt.CaseSeed(opts.Seed, g.tc), sut.Variant{})
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Release(rig)
	matched := 0
	rig.Sched().OnPostSlot(func(nowMs int64) {
		if cp := g.checkpointAt(nowMs + 1); cp != nil && cp.AtMs() == nowMs+1 {
			if !rig.Matches(cp) {
				t.Errorf("golden replay does not match the checkpoint at %d ms", cp.AtMs())
			}
			matched++
		}
	})
	if err := rig.RunFor(g.horizonMs); err != nil {
		t.Fatal(err)
	}
	if matched != len(g.cps) {
		t.Errorf("checked %d checkpoints, golden has %d", matched, len(g.cps))
	}

	// Flip one live RAM cell (one the program reads back later): the
	// state no longer matches.
	cp := g.cps[len(g.cps)/2]
	cell := rig.Mem().CellsIn(memmap.RegionRAM)[0]
	rig.Restore(cp)
	if !rig.Matches(cp) {
		t.Fatal("restored rig does not match its checkpoint")
	}
	if err := rig.Mem().FlipBit(cell.ID, 0); err != nil {
		t.Fatal(err)
	}
	if rig.Matches(cp) {
		t.Errorf("rig matches the checkpoint after %s was flipped", cell.Address())
	}
}

// TestPermeabilitySlotAccounting checks the per-run slot counters:
// simulated plus skipped slots cover every run's golden horizon, every
// run is counted once by how it ended, and the timing row carries the
// same split.
func TestPermeabilitySlotAccounting(t *testing.T) {
	tel := obs.New(obs.Config{})
	prev := obs.Install(tel)
	defer obs.Install(prev)

	opts := oracleOpts(t, sut.DefaultTarget, 9, 0)
	opts.Cases = opts.Cases[:1]
	col := campaign.NewCollector()
	opts.Timings = col
	res, err := EstimatePermeability(context.Background(), opts, 40)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := resolvedTarget(opts)
	if err != nil {
		t.Fatal(err)
	}
	golds, err := goldens(context.Background(), opts, tgt)
	if err != nil {
		t.Fatal(err)
	}
	rows := col.Rows()
	if len(rows) != 1 {
		t.Fatalf("%d timing rows, want 1", len(rows))
	}
	r := rows[0]
	total := r.SlotsSimulated + r.SlotsFastForwarded + r.SlotsDecided + r.SlotsConverged
	if want := int64(res.TotalRuns) * golds[0].horizonMs; total != want {
		t.Errorf("slots accounted %d, want %d runs x %d ms = %d", total, res.TotalRuns, golds[0].horizonMs, want)
	}
	for name, v := range map[string]int64{
		"simulated": r.SlotsSimulated, "fast-forwarded": r.SlotsFastForwarded,
		"decided": r.SlotsDecided, "converged": r.SlotsConverged,
	} {
		if v <= 0 {
			t.Errorf("%s slots = %d, want > 0", name, v)
		}
	}
	if got := tel.SlotsSimulated.Value(); got != r.SlotsSimulated {
		t.Errorf("counter says %d simulated slots, timing row %d", got, r.SlotsSimulated)
	}
	if got := r.RunsDecided + r.RunsConverged + r.RunsHorizon; got != int64(res.TotalRuns) {
		t.Errorf("runs by stop: %d decided + %d converged + %d horizon = %d, want %d runs",
			r.RunsDecided, r.RunsConverged, r.RunsHorizon, got, res.TotalRuns)
	}
	if r.RunsDecided <= 0 || r.RunsConverged <= 0 || r.RunsHorizon <= 0 {
		t.Errorf("runs by stop: %d decided, %d converged, %d horizon; want each > 0", r.RunsDecided, r.RunsConverged, r.RunsHorizon)
	}
	if r.SlotsHorizon <= 0 || r.SlotsHorizon > r.SlotsSimulated {
		t.Errorf("horizon runs simulated %d of %d slots", r.SlotsHorizon, r.SlotsSimulated)
	}
	if got := tel.RunsHorizon.Value(); got != r.RunsHorizon {
		t.Errorf("counter says %d horizon runs, timing row %d", got, r.RunsHorizon)
	}
}
