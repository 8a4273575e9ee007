package experiment

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// adaptiveOpts is determinismOpts with the adaptive layer switched on
// and the stopping rule disabled, isolating equivalence pruning and the
// round machinery: every stream runs its full trial budget, so any
// difference from the exact campaign is a pruning or bookkeeping bug.
func adaptiveOpts(workers int) Options {
	opts := determinismOpts(workers)
	opts.Adaptive = true
	opts.StopHalfWidth = -1 // never converge; rounds cover the full grid
	return opts
}

// regionFingerprint renders a RegionCoverage in a stable order.
// Latencies are sorted: a pruned campaign appends a masked class's
// (identical) latencies consecutively at the representative's position,
// so only the multiset is preserved, not the order.
func regionFingerprint(rc RegionCoverage) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s runs=%d failures=%d\n", rc.Region, rc.Runs, rc.Failures)
	var sets []string
	for set, sc := range rc.PerSet {
		sets = append(sets, fmt.Sprintf("  %s tot=%d/%d fail=%d/%d nofail=%d/%d",
			set, sc.Tot.Successes, sc.Tot.Trials,
			sc.Fail.Successes, sc.Fail.Trials,
			sc.NoFail.Successes, sc.NoFail.Trials))
	}
	sort.Strings(sets)
	b.WriteString(strings.Join(sets, "\n") + "\n")
	var lats []string
	for set, ls := range rc.SetLatenciesMs {
		sorted := append([]float64(nil), ls...)
		sort.Float64s(sorted)
		lats = append(lats, fmt.Sprintf("  %s lat=%v", set, sorted))
	}
	sort.Strings(lats)
	b.WriteString(strings.Join(lats, "\n") + "\n")
	return b.String()
}

func internalFingerprint(res *InternalCoverageResult) string {
	return fmt.Sprintf("ram=%d stack=%d\n", res.RAMLocations, res.StackLocations) +
		regionFingerprint(res.RAM) + regionFingerprint(res.Stack) + regionFingerprint(res.Total)
}

// TestAdaptivePermeabilityMatchesExactWhenStoppingDisabled pins the
// tentpole soundness property on Table 1: with the stopping rule
// disabled, the round-based adaptive driver executes the exact grid —
// trials keep their exact-plan seeds — and reduces byte-identical to
// the one-shot exact campaign.
func TestAdaptivePermeabilityMatchesExactWhenStoppingDisabled(t *testing.T) {
	ClearGoldenCache()
	exact, err := EstimatePermeability(context.Background(), determinismOpts(4), 6)
	if err != nil {
		t.Fatal(err)
	}
	ClearGoldenCache()
	adaptive, err := EstimatePermeability(context.Background(), adaptiveOpts(4), 6)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := permeabilityFingerprint(t, exact), permeabilityFingerprint(t, adaptive); a != b {
		t.Errorf("adaptive (stopping disabled) differs from exact:\n--- exact ---\n%s\n--- adaptive ---\n%s", a, b)
	}
	if adaptive.PlannedRuns != exact.TotalRuns {
		t.Errorf("adaptive PlannedRuns = %d, want exact grid %d", adaptive.PlannedRuns, exact.TotalRuns)
	}
	if adaptive.TotalRuns != adaptive.PlannedRuns {
		t.Errorf("stopping disabled but TotalRuns %d != PlannedRuns %d",
			adaptive.TotalRuns, adaptive.PlannedRuns)
	}
}

// TestAdaptivePermeabilityStopsEarly asserts the early-stopping half of
// the tentpole: a loose rule stops streams before the trial budget, the
// result accounts for the savings, and every executed stream respects
// the minimum-trials floor.
func TestAdaptivePermeabilityStopsEarly(t *testing.T) {
	opts := determinismOpts(4)
	opts.Adaptive = true
	opts.StopHalfWidth = 0.2
	opts.StopMinTrials = 30
	ClearGoldenCache()
	res, err := EstimatePermeability(context.Background(), opts, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRuns >= res.PlannedRuns {
		t.Errorf("loose stopping rule saved nothing: executed %d of %d planned",
			res.TotalRuns, res.PlannedRuns)
	}
	if res.TotalRuns < opts.StopMinTrials {
		t.Errorf("executed %d trials, below the %d floor for even one stream",
			res.TotalRuns, opts.StopMinTrials)
	}
	// The estimates are prefix averages of the exact campaign's streams,
	// so every edge estimate must stay a valid proportion with trials
	// between the floor and the full budget.
	for e, p := range res.Samples {
		if p.Trials > 0 && (p.Successes < 0 || p.Successes > p.Trials) {
			t.Errorf("edge %v has invalid proportion %d/%d", e, p.Successes, p.Trials)
		}
	}
}

// stoppingPermOpts switches on the adaptive layer with an early
// stopping rule loose enough to fire at test sizes.
func stoppingPermOpts(opts Options) Options {
	opts.Adaptive = true
	opts.StopHalfWidth = 0.25
	opts.StopMinTrials = 20
	return opts
}

// adaptivePermFingerprint runs the 24-per-input permeability campaign
// under opts and renders the result with its planned volume.
func adaptivePermFingerprint(t *testing.T, name string, opts Options) string {
	t.Helper()
	ClearGoldenCache()
	res, err := EstimatePermeability(context.Background(), opts, 24)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return permeabilityFingerprint(t, res) + fmt.Sprintf("planned=%d", res.PlannedRuns)
}

// TestAdaptivePermeabilityDeterministicAcrossExecutors asserts the
// composition requirement: rounds are ordinary campaigns, so serial,
// sharded and subprocess execution of an adaptive campaign — early
// stopping active — produce byte-identical results.
func TestAdaptivePermeabilityDeterministicAcrossExecutors(t *testing.T) {
	ref := adaptivePermFingerprint(t, "serial", stoppingPermOpts(determinismOpts(1)))

	for _, shards := range []int{1, 2, 8} {
		opts := stoppingPermOpts(determinismOpts(4))
		opts.Shards = shards
		if fp := adaptivePermFingerprint(t, fmt.Sprintf("sharded-%d", shards), opts); fp != ref {
			t.Errorf("sharded-%d adaptive output differs from serial:\n--- serial ---\n%s\n--- sharded ---\n%s",
				shards, ref, fp)
		}
	}

	var log syncLog
	subOpts := subprocessOpts(t, 2, 4, WorkerSpec{PerInput: 24}, "", &log)
	subOpts = stoppingPermOpts(subOpts)
	if fp := adaptivePermFingerprint(t, "subprocess", subOpts); fp != ref {
		t.Errorf("subprocess adaptive output differs from serial:\n--- serial ---\n%s\n--- subprocess ---\n%s\nlog:\n%s",
			ref, fp, log.String())
	}
}

// TestAdaptivePermeabilityChaosFleetMatchesSerial runs the adaptive
// permeability campaign — early stopping active, every round its own
// fleet handshake — on agents that corrupt and reset frames. The
// coordinator's shard re-dispatch must heal every fault, leaving the
// output byte-identical to the Workers: 1 run.
func TestAdaptivePermeabilityChaosFleetMatchesSerial(t *testing.T) {
	ref := adaptivePermFingerprint(t, "serial", stoppingPermOpts(determinismOpts(1)))

	var log syncLog
	tap := netChaos(99, 4)
	opts := chaosFleetOpts(t, stoppingPermOpts(determinismOpts(4)), WorkerSpec{PerInput: 24}, tap, &log)
	if fp := adaptivePermFingerprint(t, "chaos fleet", opts); fp != ref {
		t.Errorf("chaos fleet adaptive output differs from serial:\n--- serial ---\n%s\n--- chaos ---\n%s\nlog:\n%s",
			ref, fp, log.String())
	}
	checkChaosHealed(t, "adaptive", tap, log.String())
}

// TestAdaptiveInternalCoverageMatchesExactWithStoppingDisabled pins the
// def/use pruning soundness on Figure 3: the pruned, weight-reduced
// campaign must reproduce the exact campaign's regions — counts,
// per-set proportions and latency multisets, every field
// report.Figure3 renders — while executing fewer injections whenever
// any masked class has size > 1.
func TestAdaptiveInternalCoverageMatchesExactWithStoppingDisabled(t *testing.T) {
	// 60 RAM locations: roughly 4% of the map's RAM cells are provably
	// masked (write-before-read within every injection period), so a
	// 60-location sample reliably contains a few and the equality below
	// exercises the weighted reduction, not just the passthrough.
	ClearGoldenCache()
	exact, err := InternalCoverage(context.Background(), determinismOpts(4), 60, 12)
	if err != nil {
		t.Fatal(err)
	}
	ClearGoldenCache()
	adaptive, err := InternalCoverage(context.Background(), adaptiveOpts(4), 60, 12)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := internalFingerprint(exact), internalFingerprint(adaptive); a != b {
		t.Errorf("pruned coverage differs from exact:\n--- exact ---\n%s\n--- pruned ---\n%s", a, b)
	}
	if adaptive.PlannedRuns != exact.Total.Runs {
		t.Errorf("PlannedRuns = %d, want exact volume %d", adaptive.PlannedRuns, exact.Total.Runs)
	}
	if adaptive.ExecutedRuns >= adaptive.PlannedRuns {
		t.Errorf("pruning executed %d of %d planned runs; no class collapsed",
			adaptive.ExecutedRuns, adaptive.PlannedRuns)
	}
	t.Logf("internal-coverage pruning: %d of %d runs executed (%d saved)",
		adaptive.ExecutedRuns, adaptive.PlannedRuns, adaptive.PlannedRuns-adaptive.ExecutedRuns)
}

// TestAdaptiveInternalCoverageDeterministicAcrossExecutors runs the
// pruned + early-stopping Figure 3 campaign serially, sharded and on
// worker subprocesses; the round plans and stopping decisions must be
// pure functions of the cursor state, so all arms agree byte-for-byte.
func TestAdaptiveInternalCoverageDeterministicAcrossExecutors(t *testing.T) {
	stopping := func(opts Options) Options {
		opts.Adaptive = true
		opts.StopHalfWidth = 0.25
		opts.StopMinTrials = 10
		return opts
	}
	run := func(name string, opts Options) string {
		t.Helper()
		ClearGoldenCache()
		res, err := InternalCoverage(context.Background(), opts, 20, 12)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return internalFingerprint(res) +
			fmt.Sprintf("planned=%d executed=%d", res.PlannedRuns, res.ExecutedRuns)
	}

	ref := run("serial", stopping(determinismOpts(1)))

	sharded := stopping(determinismOpts(4))
	sharded.Shards = 4
	if fp := run("sharded", sharded); fp != ref {
		t.Errorf("sharded adaptive coverage differs from serial:\n--- serial ---\n%s\n--- sharded ---\n%s", ref, fp)
	}

	var log syncLog
	sub := subprocessOpts(t, 2, 4, WorkerSpec{RAMLocations: 20, StackLocations: 12}, "", &log)
	sub = stopping(sub)
	if fp := run("subprocess", sub); fp != ref {
		t.Errorf("subprocess adaptive coverage differs from serial:\n--- serial ---\n%s\n--- subprocess ---\n%s\nlog:\n%s",
			ref, fp, log.String())
	}
}

// TestAdaptiveRecoveryMatchesExact pins pruning soundness on the
// recovery study: per-arm liveness profiles collapse masked classes
// into weighted representatives, and the weighted reduction must equal
// the exact study — runs, failures and recovery counts — in every arm
// of every region.
func TestAdaptiveRecoveryMatchesExact(t *testing.T) {
	ClearGoldenCache()
	exact, err := RecoveryStudy(context.Background(), determinismOpts(4), 12, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	ClearGoldenCache()
	opts := determinismOpts(4)
	opts.Adaptive = true
	pruned, err := RecoveryStudy(context.Background(), opts, 12, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exact, pruned) {
		t.Errorf("pruned recovery study differs from exact:\n--- exact ---\n%+v\n--- pruned ---\n%+v", exact, pruned)
	}
}

// TestAdaptiveWorkerRejectsStaleRoundState asserts the dispatch safety
// seam: a worker asked to build a round it has no matching cursor state
// for must refuse rather than derive a mismatched plan.
func TestAdaptiveWorkerRejectsStaleRoundState(t *testing.T) {
	opts := determinismOpts(1)
	spec := WorkerSpec{Options: opts, PerInput: 6}
	if _, err := spec.buildWorker(context.Background(), "permeability@0"); err == nil {
		t.Error("worker built a round campaign without round state")
	}
	spec.Round = &AdaptiveRound{Campaign: "permeability", Round: 1, Batch: 2,
		Cursors: make([]int, 1), Done: make([]bool, 1)}
	if _, err := spec.buildWorker(context.Background(), "permeability@0"); err == nil {
		t.Error("worker built round 0 with round-1 state")
	}
}

// TestWorkerRejectsMalformedRoundState covers the round state a worker
// receives from outside its process: state for a campaign without
// sampling streams is refused rather than served as the exact
// campaign, and so are cursors outside their stream and an empty batch.
func TestWorkerRejectsMalformedRoundState(t *testing.T) {
	ctx := context.Background()
	spec := WorkerSpec{Options: determinismOpts(1), PerInput: 6, RecoveryRAM: 2, RecoveryStack: 2}
	spec.Round = &AdaptiveRound{Campaign: "recovery", Batch: 2, Cursors: make([]int, 1), Done: make([]bool, 1)}
	if _, err := spec.buildWorker(ctx, "recovery@0"); err == nil || !strings.Contains(err.Error(), "no adaptive campaign") {
		t.Errorf("worker served a round of the exact recovery campaign (err %v)", err)
	}
	c, err := newPermeabilityCampaign(ctx, spec.Options, spec.PerInput)
	if err != nil {
		t.Fatal(err)
	}
	streams := len(c.streams())
	for _, bad := range []struct {
		what   string
		cursor int
		batch  int
	}{{"cursor past the stream", 7, 2}, {"negative cursor", -1, 2}, {"empty batch", 0, 0}} {
		cursors := make([]int, streams)
		cursors[streams-1] = bad.cursor
		spec.Round = &AdaptiveRound{Campaign: "permeability", Batch: bad.batch, Cursors: cursors, Done: make([]bool, streams)}
		if _, err := spec.buildWorker(ctx, "permeability@0"); err == nil {
			t.Errorf("worker built a round with a %s", bad.what)
		}
	}
	spec.Round.Cursors[streams-1], spec.Round.Batch = 6, 2
	if _, err := spec.buildWorker(ctx, "permeability@0"); err != nil {
		t.Errorf("worker refused a well-formed round: %v", err)
	}
}

// TestRoundNameRoundTrip covers the "<base>@<round>" naming scheme the
// checkpoint journal and dispatch handshake key on.
func TestRoundNameRoundTrip(t *testing.T) {
	for _, base := range []string{"permeability", "internal-coverage"} {
		for _, round := range []int{0, 1, 17} {
			name := roundName(base, round)
			b, r, ok := parseRoundName(name)
			if !ok || b != base || r != round {
				t.Errorf("parseRoundName(%q) = %q, %d, %v", name, b, r, ok)
			}
		}
	}
	for _, plain := range []string{"permeability", "recovery", "internal-coverage"} {
		if _, _, ok := parseRoundName(plain); ok {
			t.Errorf("parseRoundName(%q) claimed a round name", plain)
		}
	}
}

// TestRoundBatchSchedule pins the batch schedule: quarters of the
// stream, round 0 raised to the stopping floor, never below one.
func TestRoundBatchSchedule(t *testing.T) {
	cases := []struct {
		round, total, floor, want int
	}{
		{0, 400, 100, 100}, // quarter == floor
		{0, 100, 100, 100}, // small stream collapses into round 0
		{0, 40, 100, 100},  // floor dominates tiny streams
		{1, 40, 100, 10},   // later rounds are plain quarters
		{0, 8, 0, 2},       // no floor: plain quarter
		{3, 2, 0, 1},       // never below 1
	}
	for _, c := range cases {
		if got := roundBatch(c.round, c.total, c.floor); got != c.want {
			t.Errorf("roundBatch(%d, %d, %d) = %d, want %d", c.round, c.total, c.floor, got, c.want)
		}
	}
}

// foldedLatencies renders every region's per-set latencies in the
// order the reduction appended them, which is the order runs were
// folded.
func foldedLatencies(res *InternalCoverageResult) string {
	var b strings.Builder
	for _, rc := range []RegionCoverage{res.RAM, res.Stack, res.Total} {
		sets := make([]string, 0, len(rc.SetLatenciesMs))
		for set := range rc.SetLatenciesMs {
			sets = append(sets, set)
		}
		sort.Strings(sets)
		for _, set := range sets {
			fmt.Fprintf(&b, "%s %s %v\n", rc.Region, set, rc.SetLatenciesMs[set])
		}
	}
	return b.String()
}

// TestAdaptiveRoundSchedulePinned pins adaptive output, run serially,
// against constants captured before the two adaptive campaigns shared
// one round driver. The first two configurations are those of the
// executor-equivalence tests above; at these sizes every stream stops
// after round 0. The other two stop streams over several rounds: the
// executed runs exceed what round 0 can hold, and the shorter streams
// end on a remainder batch (Table 1: batches 10, 8, 8, 4 of 30 trials;
// Figure 3: the stack stream's 15, 15, 6). A moved batch schedule,
// remainder slice or stopping decision changes the executed runs and
// the counts. Figure 3's latencies are also hashed in the order they
// were folded, so a moved fold order changes the digest.
//
// The multi-round configurations also run on two sharded workers and
// in worker subprocesses, where every round after the first reaches
// the workers re-encoded by withRound; both must give the pinned
// counts and digests.
func TestAdaptiveRoundSchedulePinned(t *testing.T) {
	digest := func(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:16] }
	stopping := func(halfWidth float64, minTrials int) func(Options) Options {
		return func(opts Options) Options {
			opts.Adaptive = true
			opts.StopHalfWidth = halfWidth
			opts.StopMinTrials = minTrials
			return opts
		}
	}
	perm := func(perInput int) func(Options) (string, int, int, error) {
		return func(opts Options) (string, int, int, error) {
			res, err := EstimatePermeability(context.Background(), opts, perInput)
			if err != nil {
				return "", 0, 0, err
			}
			return permeabilityFingerprint(t, res), res.PlannedRuns, res.TotalRuns, nil
		}
	}
	internal := func(opts Options) (string, int, int, error) {
		res, err := InternalCoverage(context.Background(), opts, 20, 12)
		if err != nil {
			return "", 0, 0, err
		}
		return internalFingerprint(res) + foldedLatencies(res), res.PlannedRuns, res.ExecutedRuns, nil
	}
	type executorRun struct {
		name string
		opts Options
	}
	coverageSpec := WorkerSpec{RAMLocations: 20, StackLocations: 12}
	cases := []struct {
		name              string
		stop              func(Options) Options
		run               func(Options) (string, int, int, error)
		spec              WorkerSpec // the subprocess workers' campaign
		planned, executed int
		round0            int // most runs round 0 can execute; 0 = not multi-round
		digest            string
	}{
		{"permeability/hw0.25", stoppingPermOpts, perm(24), WorkerSpec{PerInput: 24}, 312, 260, 0, "e97ce0dd189a0483"},
		{"internal-coverage/hw0.25", stopping(0.25, 10), internal, coverageSpec, 96, 30, 0, "f0a6c31e74494deb"},
		{"permeability/hw0.15", stopping(0.15, 10), perm(30), WorkerSpec{PerInput: 30}, 390, 254, 13 * 10, "6ca903e7d7d32308"},
		{"internal-coverage/hw0.15", stopping(0.15, 10), internal, coverageSpec, 96, 66, 2 * 15, "3a2a433a3735cf9d"},
	}
	for _, c := range cases {
		var log syncLog
		executors := []executorRun{{"serial", c.stop(determinismOpts(1))}}
		if c.round0 > 0 {
			executors = append(executors,
				executorRun{"sharded", c.stop(determinismOpts(2))},
				executorRun{"subprocess", c.stop(subprocessOpts(t, 2, 4, c.spec, "", &log))})
		}
		for _, e := range executors {
			ClearGoldenCache()
			fp, planned, executed, err := c.run(e.opts)
			if err != nil {
				t.Fatalf("%s on %s: %v\nlog:\n%s", c.name, e.name, err, log.String())
			}
			if planned != c.planned || executed != c.executed {
				t.Errorf("%s on %s: planned %d, executed %d; pinned %d, %d", c.name, e.name, planned, executed, c.planned, c.executed)
			}
			if got := digest(fp); got != c.digest {
				t.Errorf("%s on %s: result digest %s, pinned %s:\n%s", c.name, e.name, got, c.digest, fp)
			}
			if c.round0 > 0 && executed <= c.round0 {
				t.Errorf("%s on %s: %d runs fit in round 0 (up to %d); the configuration no longer spans rounds",
					c.name, e.name, executed, c.round0)
			}
		}
	}
}
