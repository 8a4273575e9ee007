package experiment

import (
	"context"
	"testing"

	"repro/internal/fi"
	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/sut"
	"repro/internal/target"
)

func TestErrorModelSensitivitySmall(t *testing.T) {
	opts := smallOpts()
	res, err := ErrorModelSensitivity(context.Background(), opts, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 5 {
		t.Fatalf("models = %v, want 5", res.Models)
	}
	for _, m := range res.Models {
		sets := res.PerModel[m]
		eh := sets[SetEH].Estimate()
		pa := sets[SetPA].Estimate()
		if eh < 0 || eh > 1 || pa < 0 || pa > 1 {
			t.Errorf("%s: coverage outside [0,1]: EH %v PA %v", m, eh, pa)
		}
		if pa > eh+1e-9 {
			t.Errorf("%s: PA %v above EH %v", m, pa, eh)
		}
	}
	// Persistent models must be at least as detectable as the single
	// transient flip: a stuck line or a periodic flip keeps producing
	// anomalies.
	tr := res.PerModel["transient"][SetEH].Estimate()
	for _, harsh := range []string{"stuck-at-1", "intermittent"} {
		if got := res.PerModel[harsh][SetEH].Estimate(); got < tr {
			t.Errorf("%s coverage %v below transient %v", harsh, got, tr)
		}
	}
}

func TestErrorModelSensitivityRejectsBadArgs(t *testing.T) {
	if _, err := ErrorModelSensitivity(context.Background(), smallOpts(), 0); err == nil {
		t.Error("perModel 0 accepted")
	}
	bad := smallOpts()
	bad.Workers = 0
	if _, err := ErrorModelSensitivity(context.Background(), bad, 5); err == nil {
		t.Error("invalid options accepted")
	}
}

func TestRecoveryStudySmall(t *testing.T) {
	opts := smallOpts()
	res, err := RecoveryStudy(context.Background(), opts, 15, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantRuns := 15 * len(opts.Cases)
	for _, region := range []RecoveryRegion{res.RAM} {
		for _, arm := range []RecoveryArm{region.Baseline, region.Wrapped, region.Hardened} {
			if arm.Runs != wantRuns {
				t.Errorf("%s arm runs = %d, want %d", region.Region, arm.Runs, wantRuns)
			}
		}
	}
	// The baseline never recovers anything; only the wrapped arm does.
	if res.Total.Baseline.Recoveries != 0 {
		t.Errorf("baseline recorded %d recoveries", res.Total.Baseline.Recoveries)
	}
	if res.Total.Hardened.Recoveries != 0 {
		t.Errorf("hardened arm recorded %d wrapper recoveries", res.Total.Hardened.Recoveries)
	}
	if rate := res.Total.Baseline.FailureRate(); rate < 0 || rate > 1 {
		t.Errorf("failure rate %v outside [0,1]", rate)
	}
}

// TestHardenedDistSReducesDominantFailures pins the recovery finding:
// corrupting DIST_S's previous-counter sample drives arrest-liveness
// failures in the baseline, and the module-internal delta rejection
// eliminates most of them — while signal wrappers do not.
func TestHardenedDistSReducesDominantFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("medium campaign")
	}
	opts := smallOpts()
	st, err := resolvedTarget(opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newRecoveryCampaign(context.Background(), opts, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := st.Acquire(opts.Cases[0], 1, sut.Variant{})
	if err != nil {
		t.Fatal(err)
	}
	var cell memmap.CellInfo
	found := false
	for _, c := range scratch.Mem().CellsIn(memmap.RegionRAM) {
		if c.Owner == string(target.ModDistS) && c.Name == "prevPACNT" {
			cell, found = c, true
		}
	}
	if !found {
		t.Fatal("prevPACNT cell not found")
	}
	base, hard := 0, 0
	for b := uint8(0); b < cell.Type.Width; b++ {
		tgt := fi.MemTarget{Kind: fi.TargetRAMCell, Cell: cell.ID, Bit: b}
		for gi := range c.golds {
			baseline, err := c.Execute(context.Background(), recJob{tgt: tgt, caseIdx: gi, arm: 0}, 0)
			if err != nil {
				t.Fatal(err)
			}
			hardened, err := c.Execute(context.Background(), recJob{tgt: tgt, caseIdx: gi, arm: 2}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if baseline.Failed {
				base++
			}
			if hardened.Failed {
				hard++
			}
		}
	}
	if base < 10 {
		t.Fatalf("baseline failures = %d; prevPACNT no longer a dominant cause", base)
	}
	if hard*2 >= base {
		t.Errorf("hardened failures = %d of baseline %d; containment ineffective", hard, base)
	}
}

func TestHardenedGoldenRunsUnchanged(t *testing.T) {
	// The delta clamp must be invisible on fault-free runs: identical
	// arrest time and distance.
	run := func(hardened bool) (int64, float64) {
		cfg := target.DefaultConfig(12000, 65, 3)
		cfg.HardenedDistS = hardened
		rig, err := target.NewRig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := rig.RunUntilArrested(30_000)
		if err != nil || !ok {
			t.Fatalf("arrest failed: %v", err)
		}
		return rig.Sched.NowMs(), rig.Plant.Distance()
	}
	t1, d1 := run(false)
	t2, d2 := run(true)
	if t1 != t2 || d1 != d2 {
		t.Errorf("hardening changed golden behaviour: (%d, %.3f) vs (%d, %.3f)", t1, d1, t2, d2)
	}
}

func TestWrappersSilentOnGoldenRuns(t *testing.T) {
	rig, err := target.NewRig(target.DefaultConfig(16000, 80, 2))
	if err != nil {
		t.Fatal(err)
	}
	bank, err := target.NewERMBank(rig, target.DefaultERMSpecs())
	if err != nil {
		t.Fatal(err)
	}
	ok, err := rig.RunUntilArrested(30_000)
	if err != nil || !ok {
		t.Fatalf("arrest failed: %v", err)
	}
	if bank.Recovered() {
		t.Errorf("wrappers fired on a fault-free run: %v", bank.RecoveredBy())
	}
}

func TestCoverageLatenciesNonNegative(t *testing.T) {
	opts := smallOpts()
	res, err := InputCoverage(context.Background(), opts, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	for set, lats := range res.All.SetLatenciesMs {
		if p := res.All.PerSet[set]; len(lats) != p.Successes {
			t.Errorf("%s: %d latencies for %d detections", set, len(lats), p.Successes)
		}
		for _, l := range lats {
			if l < 0 {
				t.Errorf("%s: negative latency %v", set, l)
			}
		}
	}
}

func TestSubsumptionCountsConsistent(t *testing.T) {
	opts := smallOpts()
	res, err := InputCoverage(context.Background(), opts, 24, nil)
	if err != nil {
		t.Fatal(err)
	}
	var pacnt *CoverageRow
	for i := range res.Rows {
		if res.Rows[i].Signal == target.SigPACNT {
			pacnt = &res.Rows[i]
		}
	}
	if pacnt == nil {
		t.Fatal("no PACNT row")
	}
	for a, pairs := range pacnt.PairDetections {
		// Diagonal equals the per-EA detection count.
		if got, want := pairs[a], pacnt.PerEA[a].Successes; got != want {
			t.Errorf("pair[%s][%s] = %d, want %d", a, a, got, want)
		}
		for b, n := range pairs {
			if n > pairs[a] {
				t.Errorf("pair[%s][%s] = %d exceeds diagonal %d", a, b, n, pairs[a])
			}
			if n != pacnt.PairDetections[b][a] {
				t.Errorf("pair matrix asymmetric: [%s][%s]=%d vs [%s][%s]=%d",
					a, b, n, b, a, pacnt.PairDetections[b][a])
			}
		}
	}
}

func TestEATightnessStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("medium campaign")
	}
	opts := smallOpts()
	steps := []model.Word{2, 8, 16, 64}
	points, err := EATightnessStudy(context.Background(), opts, 30, steps)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(steps) {
		t.Fatalf("points = %d, want %d", len(points), len(steps))
	}
	// Coverage must be monotone non-increasing in the step budget: a
	// looser assertion can only miss more.
	for i := 1; i < len(points); i++ {
		if points[i].Coverage.Estimate() > points[i-1].Coverage.Estimate()+1e-9 {
			t.Errorf("coverage rose with looser budget: step %d -> %.3f, step %d -> %.3f",
				points[i-1].MaxStep, points[i-1].Coverage.Estimate(),
				points[i].MaxStep, points[i].Coverage.Estimate())
		}
	}
	// The default budget (16) must be false-positive free; a budget
	// below the legitimate pulse rate (2 < 8 pulses per period at high
	// speed) must false-positive on fault-free runs.
	for _, pt := range points {
		switch pt.MaxStep {
		case 16, 64:
			if pt.FalsePositiveRuns != 0 {
				t.Errorf("step %d: %d false positives, want 0", pt.MaxStep, pt.FalsePositiveRuns)
			}
		case 2:
			if pt.FalsePositiveRuns == 0 {
				t.Error("step 2: no false positives despite impossible budget")
			}
		}
		if pt.GoldenRuns != len(opts.Cases) {
			t.Errorf("step %d: golden runs = %d", pt.MaxStep, pt.GoldenRuns)
		}
	}
}

func TestEATightnessStudyRejectsBadArgs(t *testing.T) {
	opts := smallOpts()
	if _, err := EATightnessStudy(context.Background(), opts, 0, []model.Word{8}); err == nil {
		t.Error("zero perStep accepted")
	}
	if _, err := EATightnessStudy(context.Background(), opts, 5, nil); err == nil {
		t.Error("no steps accepted")
	}
}

func TestEAIntegrationStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("medium campaign")
	}
	opts := smallOpts()
	pt, err := EAIntegrationStudy(context.Background(), opts, 60)
	if err != nil {
		t.Fatal(err)
	}
	// All three deployments see the same error set.
	if pt.Sampled.Trials != pt.WriteTriggered.Trials || pt.Sampled.Trials != pt.TightInline.Trials {
		t.Fatalf("trial counts differ: %d/%d/%d",
			pt.Sampled.Trials, pt.WriteTriggered.Trials, pt.TightInline.Trials)
	}
	// Inline checking sees every written value: it can only detect more
	// than sampling at the same budget; the tight budget more still.
	if pt.WriteTriggered.Successes < pt.Sampled.Successes {
		t.Errorf("inline %d below sampled %d", pt.WriteTriggered.Successes, pt.Sampled.Successes)
	}
	if pt.TightInline.Successes < pt.WriteTriggered.Successes {
		t.Errorf("tight inline %d below inline %d", pt.TightInline.Successes, pt.WriteTriggered.Successes)
	}
	// And the tightening must cost no false positives.
	if pt.TightInlineFalsePositives != 0 {
		t.Errorf("tight inline false positives = %d", pt.TightInlineFalsePositives)
	}
}

func TestEAIntegrationStudyRejectsBadArgs(t *testing.T) {
	if _, err := EAIntegrationStudy(context.Background(), smallOpts(), 0); err == nil {
		t.Error("zero perSignal accepted")
	}
}
