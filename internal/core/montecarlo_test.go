// The Monte Carlo comparisons run in the external test package: the
// estimator lives in internal/oracle, which imports core, so core's
// in-package tests cannot call it. They reach the in-package fixtures
// through export_test.go.
package core_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/oracle"
)

func TestMonteCarloMatchesAnalyticOnChain(t *testing.T) {
	// Single path: Eq. 2 and the simulation must agree (no sharing).
	sys, err := model.NewBuilder("mc-chain").
		AddSignal("in", model.Uint(8), model.AsSystemInput()).
		AddSignal("m", model.Uint(8)).
		AddSignal("out", model.Uint(8), model.AsSystemOutput(1)).
		AddModule("A", model.In("in"), model.Out("m")).
		AddModule("B", model.In("m"), model.Out("out")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPermeability(sys)
	p.MustSet("A", 1, 1, 0.6)
	p.MustSet("B", 1, 1, 0.5)

	exact, err := core.Impact(p, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	mc, err := oracle.MonteCarloImpact(p, "in", "out", 40_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mc-exact) > 0.01 {
		t.Errorf("MC %v vs exact %v on a single path", mc, exact)
	}
}

func TestMonteCarloBelowEq2OnSharedSuffix(t *testing.T) {
	// Two paths sharing their suffix: Eq. 2 treats them as independent
	// and overestimates; the simulation accounts for the shared edge.
	sys, err := model.NewBuilder("mc-shared").
		AddSignal("in", model.Uint(8), model.AsSystemInput()).
		AddSignal("a", model.Uint(8)).
		AddSignal("b", model.Uint(8)).
		AddSignal("j", model.Uint(8)).
		AddSignal("out", model.Uint(8), model.AsSystemOutput(1)).
		AddModule("SPLIT", model.In("in"), model.Out("a", "b")).
		AddModule("JOIN", model.In("a", "b"), model.Out("j")).
		AddModule("TAIL", model.In("j"), model.Out("out")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPermeability(sys)
	p.MustSet("SPLIT", 1, 1, 0.7)
	p.MustSet("SPLIT", 1, 2, 0.7)
	p.MustSet("JOIN", 1, 1, 0.8)
	p.MustSet("JOIN", 2, 1, 0.8)
	p.MustSet("TAIL", 1, 1, 0.5) // shared by both paths

	eq2, err := core.Impact(p, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	mc, err := oracle.MonteCarloImpact(p, "in", "out", 60_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Exact by hand: P(j erroneous) = 1-(1-.7*.8)^2 = 0.8064; through
	// the shared tail: 0.4032. Eq. 2: 1-(1-.28)^2 = 0.4816.
	if math.Abs(mc-0.4032) > 0.01 {
		t.Errorf("MC = %v, want ~0.4032", mc)
	}
	if eq2 <= mc {
		t.Errorf("Eq.2 %v not above MC %v despite shared suffix", eq2, mc)
	}
	if math.Abs(eq2-0.4816) > 1e-9 {
		t.Errorf("Eq.2 = %v, want 0.4816", eq2)
	}
}

func TestMonteCarloSelfAndErrors(t *testing.T) {
	sys := core.ChainSystem(t)
	p := core.NewPermeability(sys)
	got, err := oracle.MonteCarloImpact(p, "out", "out", 10, 1)
	if err != nil || got != 1 {
		t.Errorf("self impact = %v, %v", got, err)
	}
	if _, err := oracle.MonteCarloImpact(p, "ghost", "out", 10, 1); err == nil {
		t.Error("unknown source accepted")
	}
	if _, err := oracle.MonteCarloImpact(p, "in", "ghost", 10, 1); err == nil {
		t.Error("unknown destination accepted")
	}
	if _, err := oracle.MonteCarloImpact(p, "in", "out", 0, 1); err == nil {
		t.Error("zero samples accepted")
	}
}

func TestMonteCarloDeterministicPerSeed(t *testing.T) {
	sys := core.ChainSystem(t)
	p := core.NewPermeability(sys)
	p.MustSet("A", 1, 1, 0.5)
	p.MustSet("B", 1, 1, 0.5)
	a, _ := oracle.MonteCarloImpact(p, "in", "out", 5000, 42)
	b, _ := oracle.MonteCarloImpact(p, "in", "out", 5000, 42)
	if a != b {
		t.Errorf("same-seed estimates differ: %v vs %v", a, b)
	}
}

func TestMonteCarloHandlesCycles(t *testing.T) {
	sys := core.LoopSystem(t)
	p := core.NewPermeability(sys)
	p.MustSet("M", 2, 1, 1.0) // s -> s self-loop at permeability 1
	p.MustSet("M", 2, 2, 0.3)
	got, err := oracle.MonteCarloImpact(p, "s", "out", 20_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("cyclic MC = %v, want ~0.3", got)
	}
}

// Property: the FKG bound — Eq. 2 impact >= Monte-Carlo impact (up to
// sampling noise) on random DAGs, and both lie in [0, 1].
func TestQuickEq2DominatesMonteCarlo(t *testing.T) {
	f := func(seed int64) bool {
		sys, p := core.RandomDAG(seed)
		for _, o := range sys.SystemOutputs() {
			for _, s := range sys.SystemInputs() {
				eq2, err := core.Impact(p, s, o)
				if err != nil {
					return false
				}
				mc, err := oracle.MonteCarloImpact(p, s, o, 3000, seed+7)
				if err != nil {
					return false
				}
				if mc < 0 || mc > 1 {
					return false
				}
				// Allow 4-sigma sampling noise.
				tol := 4 * math.Sqrt(mc*(1-mc)/3000)
				if mc > eq2+tol+0.01 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestMonteCarloWorkerInvariant pins the deterministic merge: sample
// blocks are seeded by block index, so the estimate cannot depend on
// the worker count.
func TestMonteCarloWorkerInvariant(t *testing.T) {
	sys := core.LoopSystem(t)
	p := core.NewPermeability(sys)
	p.MustSet("M", 1, 1, 0.4)
	p.MustSet("M", 1, 2, 0.7)
	p.MustSet("M", 2, 1, 0.9)
	p.MustSet("M", 2, 2, 0.3)
	// Enough samples to span several of the estimator's 4096-sample
	// blocks.
	const samples = 3*4096 + 17
	ref, err := oracle.MonteCarloImpactWorkers(p, "in", "out", samples, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 16} {
		got, err := oracle.MonteCarloImpactWorkers(p, "in", "out", samples, 11, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Errorf("workers=%d: estimate %v != serial %v", workers, got, ref)
		}
	}
	if _, err := oracle.MonteCarloImpactWorkers(p, "in", "out", 100, 1, 0); err == nil {
		t.Error("zero workers accepted")
	}
}
