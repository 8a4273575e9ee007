package repro

// One benchmark per table and figure of the paper's evaluation, plus
// ablations. Each benchmark regenerates its artifact end to end (at
// reduced campaign sizes so the suite completes in minutes; use
// cmd/reproduce for the full-size campaigns) and reports the headline
// numbers as custom metrics so `go test -bench` output doubles as the
// reproduction record.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/ea"
	"repro/internal/experiment"
	"repro/internal/model"
	"repro/internal/oracle"
	"repro/internal/paper"
	"repro/internal/report"
	"repro/internal/sut"
	"repro/internal/tank"
	"repro/internal/target"
)

// benchOpts returns the reduced campaign configuration for benchmarks.
func benchOpts() experiment.Options {
	opts := experiment.DefaultOptions(1)
	opts.Cases = []sut.Case{
		{ID: 1, P1: 8000, P2: 50},
		{ID: 2, P1: 12000, P2: 65},
		{ID: 3, P1: 16000, P2: 80},
	}
	opts.Workers = 8
	return opts
}

// BenchmarkTable1PermeabilityEstimation regenerates Table 1: estimate
// the error permeability of all 25 input/output pairs by fault
// injection on the reimplemented target.
func BenchmarkTable1PermeabilityEstimation(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiment.EstimatePermeability(context.Background(), opts, 30)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			e := model.Edge{Module: target.ModDistS, In: 1, Out: 1, From: target.SigPACNT, To: target.SigPulscnt}
			b.ReportMetric(res.Matrix.Get(e), "P(PACNT->pulscnt)")
			b.ReportMetric(float64(res.TotalRuns), "runs")
		}
	}
}

// BenchmarkTable2SignalExposure regenerates Table 2: signal error
// exposures and the PA selection, from the paper's matrix.
func BenchmarkTable2SignalExposure(b *testing.B) {
	p := paper.Table1()
	for i := 0; i < b.N; i++ {
		pr, err := core.BuildProfile(p)
		if err != nil {
			b.Fatal(err)
		}
		sel := core.SelectPA(pr, core.DefaultThresholds())
		if got := len(sel.Selected()); got != 4 {
			b.Fatalf("PA selection has %d signals, want 4", got)
		}
		if i == 0 {
			sp, _ := pr.Signal(target.SigOutValue)
			b.ReportMetric(sp.Exposure, "X(OutValue)")
		}
	}
}

// BenchmarkTable3ResourceRequirements regenerates Table 3: the ROM/RAM
// budget of the EH and PA assertion sets.
func BenchmarkTable3ResourceRequirements(b *testing.B) {
	rig, err := target.NewRig(target.DefaultConfig(12000, 65, 1))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		bank, err := target.NewBank(rig, target.EHSet())
		if err != nil {
			b.Fatal(err)
		}
		eh := bank.TotalCost()
		pa, err := bank.SubsetCost(target.PASet())
		if err != nil {
			b.Fatal(err)
		}
		if eh.ROMBytes != 262 || pa.ROMBytes != 150 {
			b.Fatalf("costs %d/%d, want 262/150", eh.ROMBytes, pa.ROMBytes)
		}
		if i == 0 {
			red := 1 - float64(pa.ROMBytes+pa.RAMBytes)/float64(eh.ROMBytes+eh.RAMBytes)
			b.ReportMetric(red*100, "mem-reduction-%")
		}
	}
}

// BenchmarkTable4InputErrorCoverage regenerates Table 4: detection
// coverage for transient bit-flips at the system inputs.
func BenchmarkTable4InputErrorCoverage(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiment.InputCoverage(context.Background(), opts, 45, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.All.PerSet[experiment.SetEH].Estimate(), "c(EH)")
			b.ReportMetric(res.All.PerSet[experiment.SetPA].Estimate(), "c(PA)")
		}
	}
}

// BenchmarkFigure3InternalErrorCoverage regenerates Figure 3: coverage
// under periodic bit-flips into RAM and stack, split by outcome class.
func BenchmarkFigure3InternalErrorCoverage(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiment.InternalCoverage(context.Background(), opts, 40, 20)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.RAM.PerSet[experiment.SetEH].Tot.Estimate(), "cRAM(EH)")
			b.ReportMetric(res.RAM.PerSet[experiment.SetPA].Tot.Estimate(), "cRAM(PA)")
			b.ReportMetric(res.Stack.PerSet[experiment.SetEH].Tot.Estimate(), "cStack(EH)")
			b.ReportMetric(res.Stack.PerSet[experiment.SetPA].Tot.Estimate(), "cStack(PA)")
		}
	}
}

// BenchmarkFigure4ImpactTree regenerates Figure 4: the impact tree for
// pulscnt and its propagation paths to TOC2.
func BenchmarkFigure4ImpactTree(b *testing.B) {
	p := paper.Table1()
	for i := 0; i < b.N; i++ {
		tree, err := core.BuildImpactTree(p, target.SigPulscnt)
		if err != nil {
			b.Fatal(err)
		}
		paths := tree.PathsTo(target.SigTOC2)
		imp := core.ImpactFromPaths(paths)
		if imp < 0.020 || imp > 0.022 {
			b.Fatalf("impact = %v, want ~0.021", imp)
		}
		if i == 0 {
			b.ReportMetric(imp, "impact(pulscnt->TOC2)")
		}
	}
}

// BenchmarkFigure5ExposureProfile regenerates Figure 5: the exposure
// profile of the target system.
func BenchmarkFigure5ExposureProfile(b *testing.B) {
	p := paper.Table1()
	for i := 0; i < b.N; i++ {
		pr, err := core.BuildProfile(p)
		if err != nil {
			b.Fatal(err)
		}
		out := report.ProfileFigure(pr, core.ByExposure, "Figure 5")
		if len(out) == 0 {
			b.Fatal("empty profile")
		}
	}
}

// BenchmarkFigure6ImpactProfile regenerates Figure 6: the impact profile
// of the target system.
func BenchmarkFigure6ImpactProfile(b *testing.B) {
	p := paper.Table1()
	for i := 0; i < b.N; i++ {
		pr, err := core.BuildProfile(p)
		if err != nil {
			b.Fatal(err)
		}
		out := report.ProfileFigure(pr, core.ByImpact, "Figure 6")
		if len(out) == 0 {
			b.Fatal("empty profile")
		}
	}
}

// BenchmarkTable5ImpactValues regenerates Table 5: the impact of every
// signal on TOC2.
func BenchmarkTable5ImpactValues(b *testing.B) {
	p := paper.Table1()
	sigs := p.System().SignalIDs()
	for i := 0; i < b.N; i++ {
		for _, s := range sigs {
			if _, err := core.Impact(p, s, target.SigTOC2); err != nil {
				b.Fatal(err)
			}
		}
	}
	imp, _ := core.Impact(p, target.SigSetValue, target.SigTOC2)
	b.ReportMetric(imp, "impact(SetValue->TOC2)")
}

// BenchmarkExtendedSelection regenerates the Section 10 result: the
// extended framework re-derives the EH set.
func BenchmarkExtendedSelection(b *testing.B) {
	p := paper.Table1()
	for i := 0; i < b.N; i++ {
		pr, err := core.BuildProfile(p)
		if err != nil {
			b.Fatal(err)
		}
		sel := core.SelectExtended(pr, core.DefaultThresholds())
		if got := len(sel.Selected()); got != 7 {
			b.Fatalf("extended selection has %d signals, want 7", got)
		}
	}
}

// BenchmarkAblationSelectionPolicies compares exposure-only, impact-only
// and combined placement policies on the paper matrix: how many signals
// each guards and how much of the total impact mass each covers.
func BenchmarkAblationSelectionPolicies(b *testing.B) {
	p := paper.Table1()
	pr, err := core.BuildProfile(p)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		exposureOnly := core.SelectPA(pr, core.Thresholds{ExposureMin: 0.9, ImpactMin: 2, WitnessPermeability: 2})
		combined := core.SelectExtended(pr, core.DefaultThresholds())
		impactOnly := core.SelectExtended(pr, core.Thresholds{ExposureMin: 99, ImpactMin: 0.25, WitnessPermeability: 2})
		if i == 0 {
			b.ReportMetric(float64(len(exposureOnly.Selected())), "n(exposure-only)")
			b.ReportMetric(float64(len(impactOnly.Selected())), "n(impact-only)")
			b.ReportMetric(float64(len(combined.Selected())), "n(combined)")
		}
	}
}

// BenchmarkAblationEATightness sweeps the pulscnt assertion's step
// budget and reports the PACNT detection coverage and false positives
// each setting reaches — the coverage/false-positive trade the EA
// parameters navigate.
func BenchmarkAblationEATightness(b *testing.B) {
	opts := benchOpts()
	steps := []model.Word{4, 16, 64}
	for i := 0; i < b.N; i++ {
		points, err := experiment.EATightnessStudy(context.Background(), opts, 24, steps)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, pt := range points {
				b.ReportMetric(pt.Coverage.Estimate(), fmt.Sprintf("c(step=%d)", pt.MaxStep))
			}
		}
	}
}

// BenchmarkCriticalityMultiOutput exercises Eq. 3-4 on a synthetic
// multi-output system (the arrestment target has one output, so the
// paper reports no numbers; this pins the computation's cost and a
// reference value).
func BenchmarkCriticalityMultiOutput(b *testing.B) {
	sys, err := model.NewBuilder("multi").
		AddSignal("in", model.Uint(16), model.AsSystemInput()).
		AddSignal("mid", model.Uint(16)).
		AddSignal("act", model.Uint(8), model.AsSystemOutput(1.0)).
		AddSignal("diag", model.Uint(16), model.AsSystemOutput(0.2)).
		AddModule("A", model.In("in"), model.Out("mid")).
		AddModule("B", model.In("mid"), model.Out("act", "diag")).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	p := core.NewPermeability(sys)
	p.MustSet("A", 1, 1, 0.8)
	p.MustSet("B", 1, 1, 0.9)
	p.MustSet("B", 1, 2, 0.9)
	for i := 0; i < b.N; i++ {
		c, err := core.Criticality(p, "in")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(c, "criticality(in)")
		}
	}
}

// BenchmarkEABankCheck pins the per-period runtime cost of the full
// assertion bank — the execution-time-overhead side of Table 3.
func BenchmarkEABankCheck(b *testing.B) {
	rig, err := target.NewRig(target.DefaultConfig(12000, 65, 1))
	if err != nil {
		b.Fatal(err)
	}
	bank, err := target.NewBank(rig, target.EHSet())
	if err != nil {
		b.Fatal(err)
	}
	specs, err := target.SpecsFor(target.PASet())
	if err != nil {
		b.Fatal(err)
	}
	paBank, err := ea.NewBank(rig.Bus, target.ControlPeriodMs, specs)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("EH", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bank.Hook(int64(i) * target.ControlPeriodMs)
		}
	})
	b.Run("PA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			paBank.Hook(int64(i) * target.ControlPeriodMs)
		}
	})
}

// BenchmarkArrestmentRun pins the cost of one fault-free arrestment —
// the unit everything else multiplies.
func BenchmarkArrestmentRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rig, err := target.NewRig(target.DefaultConfig(12000, 65, 1))
		if err != nil {
			b.Fatal(err)
		}
		arrested, err := rig.RunUntilArrested(30_000)
		if err != nil {
			b.Fatal(err)
		}
		if !arrested {
			b.Fatal("did not arrest")
		}
	}
}

// BenchmarkExtensionModelSensitivity regenerates the error-model
// sensitivity study (DESIGN.md index A1): coverage of both EA sets under
// five input error models.
func BenchmarkExtensionModelSensitivity(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiment.ErrorModelSensitivity(context.Background(), opts, 15)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.PerModel["transient"][experiment.SetEH].Estimate(), "c(transient)")
			b.ReportMetric(res.PerModel["intermittent"][experiment.SetEH].Estimate(), "c(intermittent)")
		}
	}
}

// BenchmarkExtensionRecoveryStudy regenerates the recovery study: the
// three-arm failure-rate comparison under the internal error model.
func BenchmarkExtensionRecoveryStudy(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RecoveryStudy(context.Background(), opts, 20, 10, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Total.Baseline.FailureRate(), "fail(baseline)")
			b.ReportMetric(res.Total.Wrapped.FailureRate(), "fail(wrapped)")
			b.ReportMetric(res.Total.Hardened.FailureRate(), "fail(hardened)")
		}
	}
}

// BenchmarkAblationImpactVsMonteCarlo quantifies the path-independence
// assumption in Eq. 2 on the paper's matrix: the analytic impact of
// PACNT on TOC2 versus a Monte-Carlo propagation that respects shared
// edges (FKG: the analytic value is an upper bound).
func BenchmarkAblationImpactVsMonteCarlo(b *testing.B) {
	p := paper.Table1()
	for i := 0; i < b.N; i++ {
		mc, err := oracle.MonteCarloImpact(p, target.SigPACNT, target.SigTOC2, 20_000, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			eq2, err := core.Impact(p, target.SigPACNT, target.SigTOC2)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(eq2, "eq2")
			b.ReportMetric(mc, "monte-carlo")
		}
	}
}

// BenchmarkGeneralityTankTarget validates the framework's generalized
// applicability (the paper's future work): the full pipeline on the
// second target, a two-output tank level controller.
func BenchmarkGeneralityTankTarget(b *testing.B) {
	opts, err := experiment.DefaultOptionsFor("tank", 1)
	if err != nil {
		b.Fatal(err)
	}
	opts.Cases = opts.Cases[:2]
	opts.MaxRunMs = 20_000
	opts.Workers = 1
	for i := 0; i < b.N; i++ {
		res, err := experiment.EstimatePermeability(context.Background(), opts, 16)
		if err != nil {
			b.Fatal(err)
		}
		ranks, err := tank.RankCriticality(res.Matrix)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(ranks) > 0 {
			b.ReportMetric(ranks[0].Criticality, "top-criticality")
			b.ReportMetric(float64(res.TotalRuns), "runs")
		}
	}
}

// BenchmarkExtensionEAIntegration compares the sampling and inline EA
// deployments on identical error sets — the mechanism behind our
// Table 4 coverage sitting below the paper's.
func BenchmarkExtensionEAIntegration(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		pt, err := experiment.EAIntegrationStudy(context.Background(), opts, 45)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(pt.Sampled.Estimate(), "c(sampled)")
			b.ReportMetric(pt.WriteTriggered.Estimate(), "c(inline)")
			b.ReportMetric(pt.TightInline.Estimate(), "c(inline-tight)")
		}
	}
}

// BenchmarkAnalyticRanking pins the analytic solver's headline number:
// a full placement ranking — compile, solve every source row, profile,
// select — from a cold engine, in well under a millisecond.
func BenchmarkAnalyticRanking(b *testing.B) {
	p := paper.Table1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pr, err := analytic.New().Profile(p)
		if err != nil {
			b.Fatal(err)
		}
		sel := core.SelectPA(pr, core.DefaultThresholds())
		if got := len(sel.Selected()); got != 4 {
			b.Fatalf("PA selection has %d signals, want 4", got)
		}
	}
}

// BenchmarkAnalyticWhatIfSweep pins the full module × factor
// containment sweep (every module, five factors, single-threaded) that
// replaces one fault-injection campaign per cell.
func BenchmarkAnalyticWhatIfSweep(b *testing.B) {
	p := paper.Table1()
	mods := p.System().ModuleIDs()
	factors := []float64{0, 0.25, 0.5, 0.75, 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := analytic.Sweep(analytic.New(), p, mods, factors, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.BaseTotal, "base-criticality")
		}
	}
}

// BenchmarkAnalyticIncremental pins compositional re-analysis: after
// scaling one module of a 160-signal grid, a warm engine re-solves
// only the rows whose downstream cone contains it.
func BenchmarkAnalyticIncremental(b *testing.B) {
	_, gp := analytic.Grid(16, 10)
	warm := analytic.New()
	if _, err := warm.Profile(gp); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh factor every iteration keeps each profile a genuine
		// re-analysis rather than a memoized replay.
		scaled, err := gp.ScaleModule("M_0_0", 0.5+float64(i)*1e-9)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := warm.Profile(scaled); err != nil {
			b.Fatal(err)
		}
	}
}
