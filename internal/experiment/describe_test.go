package experiment

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/model"
)

// describedSeeds checks every run of a plan: Describe must name the
// seed the run draws its randomness from (want returns it), or name no
// seed at all for a run that draws none (want returns ok=false).
func describedSeeds[J any](t *testing.T, name string, plan []J, describe func(J, int) string, want func(J, int) (int64, bool)) {
	t.Helper()
	if len(plan) == 0 {
		t.Fatalf("%s: empty plan", name)
	}
	for i, j := range plan {
		got := describe(j, i)
		seed, ok := want(j, i)
		switch {
		case ok && !strings.HasPrefix(got, fmt.Sprintf("seed=%d ", seed)):
			t.Fatalf("%s run %d: Describe = %q, want the drawn seed %d", name, i, got, seed)
		case !ok && strings.Contains(got, "seed="):
			t.Fatalf("%s run %d draws no seed, Describe = %q", name, i, got)
		}
	}
}

// TestDescribeNamesDrawnSeed pins the panic diagnostics to the runs
// they describe: a seed printed by Describe must reproduce the run.
// The expected seeds restate each campaign's documented derivation.
func TestDescribeNamesDrawnSeed(t *testing.T) {
	ctx := context.Background()
	opts := smallOpts()
	opts.Workers = 2
	tgt, err := resolvedTarget(opts)
	if err != nil {
		t.Fatal(err)
	}
	seedOf := func(name string, index int) (int64, bool) { return tgt.RunSeed(opts.Seed, name, index), true }
	none := func(int) (int64, bool) { return 0, false }

	perm, err := newPermeabilityCampaign(ctx, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	permPlan, _ := perm.Plan()
	describedSeeds(t, "permeability", permPlan, perm.Describe, func(j permJob, _ int) (int64, bool) { return seedOf("perm", j.seq) })

	cov, err := newInputCoverageCampaign(ctx, opts, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	covPlan, _ := cov.Plan()
	describedSeeds(t, "input coverage", covPlan, cov.Describe, func(_ covJob, i int) (int64, bool) { return seedOf("cov", i) })

	sens, err := newSensitivityCampaign(ctx, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	sensPlan, _ := sens.Plan()
	describedSeeds(t, "model sensitivity", sensPlan, sens.Describe, func(_ sensJob, i int) (int64, bool) { return seedOf("modsens", i) })

	mat, err := newMatrixCampaign(ctx, opts, nil, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	matPlan, _ := mat.Plan()
	describedSeeds(t, "matrix", matPlan, mat.Describe, func(j matrixJob, i int) (int64, bool) {
		return mat.targets[j.tIdx].RunSeed(opts.Seed, "matrix", i), true
	})

	// The sensor-side sweeps draw injection k of case c from the same
	// seed under every setting, and their golden runs draw nothing.
	injection := func(name string) func(caseIdx int, golden bool) (int64, bool) {
		k := map[int]int{}
		return func(caseIdx int, golden bool) (int64, bool) {
			if golden {
				k[caseIdx] = 0
				return 0, false
			}
			k[caseIdx]++
			return seedOf(name, caseIdx*1_000_000+k[caseIdx]-1)
		}
	}
	tight, err := newTightnessCampaign(ctx, opts, 6, []model.Word{8, 16})
	if err != nil {
		t.Fatal(err)
	}
	tightPlan, _ := tight.Plan()
	tightSeed := injection("tight")
	describedSeeds(t, "tightness", tightPlan, tight.Describe, func(j tightJob, _ int) (int64, bool) { return tightSeed(j.caseIdx, j.golden) })

	integ, err := newIntegrationCampaign(ctx, opts, 6)
	if err != nil {
		t.Fatal(err)
	}
	integPlan, _ := integ.Plan()
	integSeed := injection("integ")
	describedSeeds(t, "integration", integPlan, integ.Describe, func(j integJob, _ int) (int64, bool) { return integSeed(j.caseIdx, j.golden) })

	// Internal-model runs flip on a fixed clock: no randomness at all.
	internal, err := newInternalCoverageCampaign(ctx, opts, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	internalPlan, err := internal.Plan()
	if err != nil {
		t.Fatal(err)
	}
	describedSeeds(t, "internal coverage", internalPlan, internal.Describe, func(_ memJob, i int) (int64, bool) { return none(i) })

	rec, err := newRecoveryCampaign(ctx, opts, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	recPlan, err := rec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	describedSeeds(t, "recovery", recPlan, rec.Describe, func(_ recJob, i int) (int64, bool) { return none(i) })
}
