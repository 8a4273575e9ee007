package experiment

import (
	"context"
	"testing"

	"repro/internal/model"
	"repro/internal/sut"
	"repro/internal/target"
)

// benchInjectionOpts is a single-case configuration so the benchmark
// isolates the per-run cost rather than campaign orchestration.
func benchInjectionOpts() Options {
	opts := DefaultOptions(1)
	opts.Cases = []sut.Case{{ID: 1, P1: 12000, P2: 65}}
	opts.Workers = 1
	return opts
}

// benchPermRun returns a permeability campaign over the single-case
// configuration and a job flipping DIST_S's PACNT input; callers vary
// job.seq per run.
func benchPermRun(tb testing.TB) (*permeabilityCampaign, permJob) {
	tb.Helper()
	opts := benchInjectionOpts()
	t, err := resolvedTarget(opts)
	if err != nil {
		tb.Fatal(err)
	}
	golds, err := goldens(context.Background(), opts, t)
	if err != nil {
		tb.Fatal(err)
	}
	sys := target.SharedSystem()
	mod, ok := sys.Module(target.ModDistS)
	if !ok {
		tb.Fatal("DIST_S missing")
	}
	c := &permeabilityCampaign{opts: opts, t: t, golds: golds, sys: sys}
	return c, permJob{mod: mod, port: model.PortRef{Module: mod.ID, Dir: model.DirIn, Index: 1}, sig: target.SigPACNT}
}

// BenchmarkInjectionRun pins the cost of one permeability injection run —
// the unit the ~39 000-run full-size campaigns multiply. ReportAllocs
// makes allocation regressions on the inner loop visible in CI.
func BenchmarkInjectionRun(b *testing.B) {
	c, job := benchPermRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job.seq = i
		if _, err := c.Execute(context.Background(), job, i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGoldenRun pins the cost of one fault-free reference run with
// the full 14-signal trace attached.
func BenchmarkGoldenRun(b *testing.B) {
	opts := benchInjectionOpts()
	t, err := resolvedTarget(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := recordGolden(opts, t, opts.Cases[0]); err != nil {
			b.Fatal(err)
		}
	}
}
