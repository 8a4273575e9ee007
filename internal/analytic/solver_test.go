package analytic

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/oracle"
	"repro/internal/paper"
)

const tol = 1e-9

// TestArrestmentImpactsMatchTrees pins the tentpole equivalence: on the
// paper's target (whose positive-permeability graph is acyclic despite
// the structural i→i and i↔mscnt cycles), the series solver reproduces
// every tree-enumerated Eq. 2 impact.
func TestArrestmentImpactsMatchTrees(t *testing.T) {
	p := paper.Table1()
	sys := p.System()
	e := New()
	for _, from := range sys.SignalIDs() {
		row, err := e.Impacts(p, from)
		if err != nil {
			t.Fatalf("Impacts(%s): %v", from, err)
		}
		for _, to := range sys.SignalIDs() {
			want, err := core.Impact(p, from, to)
			if err != nil {
				t.Fatalf("core.Impact(%s,%s): %v", from, to, err)
			}
			ti, _ := sys.SignalIndex(to)
			if got := row[ti]; math.Abs(got-want) > tol {
				t.Errorf("impact %s->%s: analytic %v, tree %v", from, to, got, want)
			}
		}
	}
}

// TestArrestmentRankingsByteIdentical asserts the acceptance criterion:
// every ranking (exposure, impact, criticality) orders the signals
// identically to core.BuildProfile.
func TestArrestmentRankingsByteIdentical(t *testing.T) {
	p := paper.Table1()
	ref, err := core.BuildProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New().Profile(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []core.Metric{core.ByExposure, core.ByImpact, core.ByCriticality} {
		want := ref.Ranked(m)
		have := got.Ranked(m)
		if len(want) != len(have) {
			t.Fatalf("%s: ranked %d signals, want %d", m, len(have), len(want))
		}
		for i := range want {
			if want[i].Signal != have[i].Signal {
				t.Errorf("%s rank %d: analytic %s, tree %s", m, i, have[i].Signal, want[i].Signal)
			}
		}
	}
	// Exposure and witness permeability are computed from the same sums
	// in the same order — they must be bit-equal, not just close.
	for _, s := range p.System().SignalIDs() {
		w, _ := ref.Signal(s)
		h, _ := got.Signal(s)
		if w.Exposure != h.Exposure || w.MaxInPermeability != h.MaxInPermeability {
			t.Errorf("%s: exposure/witness %v/%v, want %v/%v",
				s, h.Exposure, h.MaxInPermeability, w.Exposure, w.MaxInPermeability)
		}
		if math.Abs(w.Criticality-h.Criticality) > tol {
			t.Errorf("%s: criticality %v, want %v", s, h.Criticality, w.Criticality)
		}
	}
}

// TestGridMatchesTrees cross-checks the series solver against tree
// enumeration on a reconvergent grid (128 paths per source) with
// irregular permeabilities.
func TestGridMatchesTrees(t *testing.T) {
	sys, p := Grid(8, 3)
	e := New()
	for _, from := range sys.SystemInputs() {
		row, err := e.Impacts(p, from)
		if err != nil {
			t.Fatal(err)
		}
		for _, to := range sys.SystemOutputs() {
			want, err := core.Impact(p, from, to)
			if err != nil {
				t.Fatal(err)
			}
			ti, _ := sys.SignalIndex(to)
			if got := row[ti]; math.Abs(got-want) > tol {
				t.Errorf("impact %s->%s: analytic %v, tree %v", from, to, got, want)
			}
		}
	}
}

// TestRandomDAGsMatchTrees fuzzes layered DAGs with random shapes and
// permeabilities (including exact zeros and ones) against the tree
// reference.
func TestRandomDAGsMatchTrees(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sys, p := layeredDAG(rng.Intn, rng.Float64)
		e := New()
		for _, from := range sys.SignalIDs() {
			row, err := e.Impacts(p, from)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, to := range sys.SignalIDs() {
				want, err := core.Impact(p, from, to)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				ti, _ := sys.SignalIndex(to)
				if got := row[ti]; math.Abs(got-want) > tol {
					t.Errorf("seed %d: impact %s->%s: analytic %v, tree %v", seed, from, to, got, want)
				}
			}
		}
	}
}

// layeredDAG builds a Grid of 3–5 layers of 2–4 signals whose edges are
// dead (exactly 0, must drop out exactly), certain (exactly 1,
// saturation paths) or fractional, drawing every choice from intn and
// frac.
func layeredDAG(intn func(int) int, frac func() float64) (*model.System, *core.Permeability) {
	layers := 3 + intn(3)
	width := 2 + intn(3)
	sys, p := Grid(layers, width)
	for _, e := range sys.Edges() {
		var v float64
		switch intn(5) {
		case 0:
			v = 0
		case 1:
			v = 1
		default:
			v = frac()
		}
		if err := p.SetEdge(e, v); err != nil {
			panic(err)
		}
	}
	return sys, p
}

// TestSaturatedPathIsExactlyOne: a full-permeability path must yield
// impact exactly 1.0 (Eq. 2's product contains a zero factor), not
// 1-minus-epsilon.
func TestSaturatedPathIsExactlyOne(t *testing.T) {
	sys, p := Grid(4, 2)
	for _, e := range sys.Edges() {
		if err := p.SetEdge(e, 1); err != nil {
			t.Fatal(err)
		}
	}
	imp, err := New().Impact(p, "s_0_0", "s_3_0")
	if err != nil {
		t.Fatal(err)
	}
	if imp != 1 {
		t.Fatalf("saturated impact = %v, want exactly 1", imp)
	}
}

// TestSinglePathIsTreeExact: a destination reached over exactly one
// path takes the tree's own fold of that path's weight, so it is
// bit-equal to core.Impact. On fuzz input 01880c0222000 the lone edge
// s_1_0 → s_2_0 has weight 0.188232421875 (M_0_0 passes s_0_0 and s_0_1
// with certainty), which the series alone returned 1.5e-13 low.
func TestSinglePathIsTreeExact(t *testing.T) {
	_, p := fuzzDAG([]byte("01880c0222000"))
	e := New()
	for _, from := range []model.SignalID{"s_0_0", "s_0_1", "s_1_0"} {
		want, err := core.Impact(p, from, "s_2_0")
		if err != nil {
			t.Fatal(err)
		}
		if want != 0.188232421875 {
			t.Fatalf("tree impact %s->s_2_0 = %v, fixture changed", from, want)
		}
		got, err := e.Impact(p, from, "s_2_0")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("impact %s->s_2_0 = %v, want exactly %v", from, got, want)
		}
	}
}

func TestUnreachableIsExactlyZero(t *testing.T) {
	sys, p := oracle.CyclicFixture()
	e := New()
	// out has no outgoing edges; nothing downstream of it.
	row, err := e.Impacts(p, "out")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sys.SignalIDs() {
		i, _ := sys.SignalIndex(s)
		want := 0.0
		if s == "out" {
			want = 1
		}
		if row[i] != want {
			t.Errorf("impact out->%s = %v, want %v", s, row[i], want)
		}
	}
}

// TestCyclicFixtureFixpoint pins the fixpoint solution of the feedback
// fixture against the closed form: P(b) solves
// P(b) = 1 − (1−0.8·0.7)(1 − P(b)·0.4·0.25) = 0.56 + 0.44·0.1·P(b),
// i.e. P(b) = 0.56/(1−0.044), and P(out) = 0.6·P(b).
func TestCyclicFixtureFixpoint(t *testing.T) {
	sys, p := oracle.CyclicFixture()
	e := New()
	d, err := e.Diagnose(p)
	if err != nil {
		t.Fatal(err)
	}
	if d.Acyclic {
		t.Fatal("cyclic fixture diagnosed acyclic")
	}
	want := map[model.SignalID]float64{
		"in": 1, "a": 0.8,
		"b": 0.56 / (1 - (1-0.56)*oracle.CyclicLoopGain),
	}
	want["fb"] = want["b"] * 0.4
	want["out"] = want["b"] * 0.6
	row, err := e.Impacts(p, "in")
	if err != nil {
		t.Fatal(err)
	}
	for s, w := range want {
		i, _ := sys.SignalIndex(s)
		if math.Abs(row[i]-w) > 1e-9 {
			t.Errorf("fixpoint impact in->%s = %v, want %v", s, row[i], w)
		}
	}
	if d2, _ := e.Diagnose(p); d2.Residual != 0 {
		t.Errorf("converged solve left residual %v", d2.Residual)
	}
}

// TestCyclicFixtureAgreesWithMonteCarlo is the documented validation:
// the fixpoint's node-marginal view may overestimate the sampled
// propagation probability on cycles (Harris/FKG), but stays within
// oracle.CyclicTolerance on the fixture, on every signal downstream of
// an input — the loop's own signals included, not just the output.
func TestCyclicFixtureAgreesWithMonteCarlo(t *testing.T) {
	sys, p := oracle.CyclicFixture()
	e := New()
	for _, from := range sys.SystemInputs() {
		row, err := e.Impacts(p, from)
		if err != nil {
			t.Fatal(err)
		}
		for _, to := range sys.SignalIDs() {
			if sig, _ := sys.Signal(to); sig.Kind == model.KindSystemInput {
				continue
			}
			mc, err := oracle.MonteCarloImpact(p, from, to, 200_000, 7)
			if err != nil {
				t.Fatal(err)
			}
			ti, _ := sys.SignalIndex(to)
			got := row[ti]
			if got < mc-0.004 {
				t.Errorf("impact %s->%s: fixpoint %v below Monte Carlo %v (FKG says it must overestimate)", from, to, got, mc)
			}
			if math.Abs(got-mc) > oracle.CyclicTolerance {
				t.Errorf("impact %s->%s: fixpoint %v vs Monte Carlo %v exceeds documented tolerance %v",
					from, to, got, mc, oracle.CyclicTolerance)
			}
		}
	}
}

// TestConvergenceBounds exercises the solver caps: with MaxTerms too
// small the series reports a residual; with defaults a near-1 edge
// still converges below Tol.
func TestConvergenceBounds(t *testing.T) {
	sys, p := Grid(4, 2)
	for _, e := range sys.Edges() {
		if err := p.SetEdge(e, 0.999); err != nil {
			t.Fatal(err)
		}
	}
	starved := NewWithParams(Params{MaxTerms: 2})
	if _, err := starved.Impacts(p, "s_0_0"); err != nil {
		t.Fatal(err)
	}
	d, err := starved.Diagnose(p)
	if err != nil {
		t.Fatal(err)
	}
	if d.Residual <= 0 {
		t.Fatalf("starved solver reported no residual")
	}
	full := New()
	imp, err := full.Impact(p, "s_0_0", "s_3_0")
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Impact(p, "s_0_0", "s_3_0")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(imp-want) > tol {
		t.Fatalf("near-1 permeabilities: analytic %v, tree %v", imp, want)
	}
	if d, _ := full.Diagnose(p); d.Residual != 0 {
		t.Fatalf("default solver left residual %v", d.Residual)
	}
	// A starved fixpoint must likewise surface its residual.
	_, cp := oracle.CyclicFixture()
	tight := NewWithParams(Params{MaxSweeps: 1, FixTol: 1e-15})
	if _, err := tight.Impacts(cp, "in"); err != nil {
		t.Fatal(err)
	}
	if d, _ := tight.Diagnose(cp); d.Residual <= 0 {
		t.Fatalf("starved fixpoint reported no residual")
	}
}

func TestUnknownSignalAndModuleErrors(t *testing.T) {
	p := paper.Table1()
	e := New()
	if _, err := e.Impacts(p, "nope"); err == nil {
		t.Error("Impacts(unknown) succeeded")
	}
	if _, err := e.Impact(p, "PACNT", "nope"); err == nil {
		t.Error("Impact(_, unknown) succeeded")
	}
	if _, err := Sweep(e, p, []model.ModuleID{"NOPE"}, []float64{0.5}, 1); err == nil {
		t.Error("Sweep(unknown module) succeeded")
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := Sweep(e, p, []model.ModuleID{"CALC"}, []float64{0.5, bad}, 1); err == nil {
			t.Errorf("Sweep(factor %v) succeeded", bad)
		}
	}
}
