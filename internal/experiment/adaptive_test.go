package experiment

import (
	"context"
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
