package analytic

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/oracle"
	"repro/internal/paper"
)

// Impacts returns I(from → t) for every signal t of the system, indexed
// by the system's dense signal order (model.System.SignalIndex).
func (e *Engine) Impacts(p *core.Permeability, from model.SignalID) ([]float64, error) {
	sc, ctx, err := e.contextFor(p)
	if err != nil {
		return nil, err
	}
	src, ok := p.System().SignalIndex(from)
	if !ok {
		return nil, fmt.Errorf("analytic: unknown signal %q", from)
	}
	row := e.oneRow(sc, ctx, int32(src), false)
	return append([]float64(nil), row.vals...), nil
}

// TestIncrementalInvalidation is the FastFlip property: scaling one
// near-source module of the grid re-solves only the rows whose
// downstream cone contains it; every other row is a cache hit.
func TestIncrementalInvalidation(t *testing.T) {
	sys, p := Grid(6, 4)
	n := sys.NumSignals()
	e := New()
	if _, err := e.Profile(p); err != nil {
		t.Fatal(err)
	}
	cold := e.Stats()
	if cold.Misses != uint64(n) || cold.Hits != 0 {
		t.Fatalf("cold profile: %d misses %d hits, want %d misses 0 hits", cold.Misses, cold.Hits, n)
	}

	// M_0_0 reads s_0_0 and s_0_1. Only those two rank-0 sources can
	// reach its inputs (rank-0 signals have no in-edges), so exactly two
	// rows must re-solve.
	scaled, err := p.ScaleModule("M_0_0", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Profile(scaled); err != nil {
		t.Fatal(err)
	}
	warm := e.Stats()
	if misses := warm.Misses - cold.Misses; misses != 2 {
		t.Errorf("incremental re-analysis solved %d rows, want 2", misses)
	}
	if hits := warm.Hits - cold.Hits; hits != uint64(n-2) {
		t.Errorf("incremental re-analysis hit %d rows, want %d", hits, n-2)
	}

	// Cached rows must be bit-equal to a cold engine's solve of the
	// scaled matrix (scaling by a positive factor preserves the active
	// subgraph, hence the sweep order, hence every float op).
	fresh := New()
	for _, s := range sys.SignalIDs() {
		a, err := e.Impacts(scaled, s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.Impacts(scaled, s)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("row %s[%d]: cached %v != fresh %v", s, i, a[i], b[i])
			}
		}
	}
}

// TestShapeCacheMatchesFreshEngine: contexts share the cached shape of
// their active-edge set, and a row recalled under one shape must be
// bit-equal to a fresh engine's solve under another. Each case re-solves
// on a warm engine and compares every row with a cold one.
func TestShapeCacheMatchesFreshEngine(t *testing.T) {
	sys, p := Grid(6, 4)
	warm := New()
	base := shapeOf(t, warm, p)
	if _, err := warm.Profile(p); err != nil {
		t.Fatal(err)
	}

	// Zeroing a module drops its edges from the active set: a new shape.
	zeroed, err := p.ScaleModule("M_2_1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if shapeOf(t, warm, zeroed) == base {
		t.Error("ScaleModule(M_2_1, 0) re-used the unscaled shape")
	}
	sameRows(t, warm, zeroed)

	// A positive factor keeps every active edge active: the same shape.
	scaled, err := p.ScaleModule("M_2_1", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if shapeOf(t, warm, scaled) != base {
		t.Error("ScaleModule(M_2_1, 0.3) compiled a new shape")
	}
	sameRows(t, warm, scaled)

	// In place: an edge set to 0 and back returns to the first shape.
	edge := sys.Edges()[5]
	was := p.Get(edge)
	if err := p.SetEdge(edge, 0); err != nil {
		t.Fatal(err)
	}
	if shapeOf(t, warm, p) == base {
		t.Error("zeroing an edge in place re-used the unscaled shape")
	}
	sameRows(t, warm, p)
	if err := p.SetEdge(edge, was); err != nil {
		t.Fatal(err)
	}
	if shapeOf(t, warm, p) != base {
		t.Error("restoring the edge did not recall the unscaled shape")
	}
	sameRows(t, warm, p)

	// The cyclic fixture's shape keeps the fixpoint path.
	_, cp := oracle.CyclicFixture()
	if shapeOf(t, warm, cp).acyclic {
		t.Error("cyclic fixture compiled to an acyclic shape")
	}
	sameRows(t, warm, cp)

	// A cycle outside a source's cone selects the fixpoint for the whole
	// matrix; once the cycle is cut, the series row must not be served
	// from the fixpoint's cache entry (they differ on reconvergence).
	lp := cycleBesideDiamond()
	if shapeOf(t, warm, lp).acyclic {
		t.Fatal("cycleBesideDiamond compiled to an acyclic shape")
	}
	if _, err := warm.Impacts(lp, "a"); err != nil {
		t.Fatal(err)
	}
	cut, err := lp.ScaleModule("L2", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !shapeOf(t, warm, cut).acyclic {
		t.Fatal("cutting the loop left a cyclic shape")
	}
	sameRows(t, warm, cut)
}

// TestSolverChosenPerSource: a loop that a source cannot reach leaves
// its row to the exact series. With the loop of cycleBesideDiamond
// active, I(a→e) is the tree's 0.234375, not the fixpoint's 0.21875,
// while the loop's own sources still take the fixpoint.
func TestSolverChosenPerSource(t *testing.T) {
	p := cycleBesideDiamond()
	e := New()
	_, ctx, err := e.contextFor(p)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.acyclic {
		t.Fatal("cycleBesideDiamond compiled to an acyclic shape")
	}
	sys := p.System()
	for sig, want := range map[model.SignalID]bool{"a": true, "b": true, "x": false, "y": false} {
		i, _ := sys.SignalIndex(sig)
		if got := ctx.acyclicFrom(int32(i)); got != want {
			t.Errorf("acyclicFrom(%s) = %v, want %v", sig, got, want)
		}
	}
	tree, err := core.Impact(p, "a", "e")
	if err != nil {
		t.Fatal(err)
	}
	if tree != 0.234375 {
		t.Fatalf("tree I(a→e) = %v, want 0.234375", tree)
	}
	got, err := e.Impact(p, "a", "e")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-tree) > tol {
		t.Errorf("I(a→e) = %v, want the tree's %v", got, tree)
	}
}

// TestOutputRowsMatchFullRows: the rows Profile solves stop once the
// system outputs converge, and must be bit-equal at the outputs to
// full rows from a fresh engine, on acyclic and cyclic systems alike.
func TestOutputRowsMatchFullRows(t *testing.T) {
	_, grid := Grid(6, 4)
	_, cyc := oracle.CyclicFixture()
	for _, p := range []*core.Permeability{paper.Table1(), grid, cyc, cycleBesideDiamond()} {
		pr, err := New().Profile(p)
		if err != nil {
			t.Fatal(err)
		}
		sameOutputRows(t, pr)
	}
}

// sameOutputRows checks every impact of a profile bit-for-bit against a
// fresh engine's full Impacts row.
func sameOutputRows(t *testing.T, pr *core.Profile) {
	t.Helper()
	p, sys := pr.Permeability(), pr.System()
	fresh := New()
	for _, s := range sys.SignalIDs() {
		row, err := fresh.Impacts(p, s)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := pr.Signal(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(sp.Impacts) != len(sys.SystemOutputs()) {
			t.Fatalf("%s: %s has %d output impacts, want %d", sys.Name(), s, len(sp.Impacts), len(sys.SystemOutputs()))
		}
		for i, o := range sys.SystemOutputs() {
			oi, _ := sys.SignalIndex(o)
			if got, want := sp.Impacts[i], row[oi]; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: Profile I(%s→%s) = %v, full row %v", sys.Name(), s, o, got, want)
			}
		}
	}
}

// cycleBesideDiamond is a diamond a → {b, c} → d → e, which the
// fixpoint's node-marginal model gets wrong (1 − (1 − w_b·w)(1 − w_c·w)
// folded before the shared tail), beside a loop y → z → y through L1
// and L2 that a cannot reach. Every permeability is 0.5.
func cycleBesideDiamond() *core.Permeability {
	b := model.NewBuilder("cycle-beside-diamond")
	b.AddSignal("a", model.Uint(16), model.AsSystemInput())
	b.AddSignal("x", model.Uint(16), model.AsSystemInput())
	for _, s := range []model.SignalID{"b", "c", "d", "y", "z"} {
		b.AddSignal(s, model.Uint(16))
	}
	b.AddSignal("e", model.Uint(16), model.AsSystemOutput(1))
	b.AddModule("SPLIT", model.In("a"), model.Out("b", "c"))
	b.AddModule("JOIN", model.In("b", "c"), model.Out("d"))
	b.AddModule("TAIL", model.In("d"), model.Out("e"))
	b.AddModule("L1", model.In("x", "z"), model.Out("y"))
	b.AddModule("L2", model.In("y"), model.Out("z"))
	sys := b.MustBuild()
	p := core.NewPermeability(sys)
	for _, e := range sys.Edges() {
		if err := p.SetEdge(e, 0.5); err != nil {
			panic(err)
		}
	}
	return p
}

func shapeOf(t *testing.T, e *Engine, p *core.Permeability) *shape {
	t.Helper()
	_, ctx, err := e.contextFor(p)
	if err != nil {
		t.Fatal(err)
	}
	return ctx.shape
}

// sameRows checks every row of e under p bit-for-bit against a fresh
// engine.
func sameRows(t *testing.T, e *Engine, p *core.Permeability) {
	t.Helper()
	fresh := New()
	for _, s := range p.System().SignalIDs() {
		a, err := e.Impacts(p, s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.Impacts(p, s)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("row %s[%d]: warm %v != fresh %v", s, i, a[i], b[i])
			}
		}
	}
}

// TestRepeatedProfileIsAllHits: re-profiling an unchanged matrix must
// not re-solve anything.
func TestRepeatedProfileIsAllHits(t *testing.T) {
	p := paper.Table1()
	e := New()
	if _, err := e.Profile(p); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	if _, err := e.Profile(p); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.Misses != before.Misses {
		t.Errorf("re-profile solved %d new rows, want 0", after.Misses-before.Misses)
	}
}

// TestMutatedMatrixIsRecompiled: the engine fingerprints matrix content
// on every call, so in-place mutation (not just ScaleModule copies) is
// picked up.
func TestMutatedMatrixIsRecompiled(t *testing.T) {
	p := paper.Table1()
	e := New()
	before, err := e.Impact(p, "PACNT", "TOC2")
	if err != nil {
		t.Fatal(err)
	}
	p.MustSet("PRES_A", 1, 1, 0.1) // was 0.875
	after, err := e.Impact(p, "PACNT", "TOC2")
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("weakening PRES_A did not lower impact: %v -> %v", before, after)
	}
}

// TestFingerprintCollisionIsAMiss plants another matrix's context
// under a matrix's fingerprint, as a 64-bit collision would, and checks
// that the engine does not answer from it: the stored permeabilities
// differ from the matrix's, so the hit is a miss and the profile is a
// fresh engine's, bit for bit.
func TestFingerprintCollisionIsAMiss(t *testing.T) {
	_, a := Grid(6, 4)
	b, err := a.ScaleModule("M_0_0", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	if _, err := e.Profile(a); err != nil {
		t.Fatal(err)
	}
	sc := e.systems[a.System()]
	_, _, fpA := sc.top.readMatrix(a)
	_, _, fpB := sc.top.readMatrix(b)
	if fpA == fpB {
		t.Fatal("the two matrices share a fingerprint; pick another edit")
	}
	sc.ctxs[fpB] = sc.ctxs[fpA]
	got, err := e.Profile(b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New().Profile(b)
	if err != nil {
		t.Fatal(err)
	}
	sameProfile(t, "planted context", got, want)
	if ctx := sc.ctxs[fpB]; !sameBits(ctx.perm, b.Values()) {
		t.Error("the recompiled context did not take the fingerprint's slot")
	}
}

func TestDiagnoseArrestmentAcyclic(t *testing.T) {
	d, err := New().Diagnose(paper.Table1())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Acyclic {
		t.Error("arrestment positive-permeability graph diagnosed cyclic; the series solver should apply")
	}
	if d.ActiveEdges == 0 {
		t.Error("no active edges")
	}
}

// TestSweepDeterministicAcrossWorkers pins the sweep result independent
// of the worker count and consistent with serial per-cell profiling.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	p := paper.Table1()
	mods := p.System().ModuleIDs()
	factors := []float64{0, 0.25, 0.5, 0.75, 1}
	ref, err := Sweep(New(), p, mods, factors, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Cells) != len(mods)*len(factors) {
		t.Fatalf("sweep returned %d cells, want %d", len(ref.Cells), len(mods)*len(factors))
	}
	for _, workers := range []int{2, 8} {
		got, err := Sweep(New(), p, mods, factors, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.BaseTotal != ref.BaseTotal {
			t.Fatalf("workers=%d: base total %v != %v", workers, got.BaseTotal, ref.BaseTotal)
		}
		for i := range ref.Cells {
			if got.Cells[i] != ref.Cells[i] {
				t.Errorf("workers=%d cell %d: %+v != %+v", workers, i, got.Cells[i], ref.Cells[i])
			}
		}
	}
	// Factor 1 must be a no-op cell; factor 0 on a module everything
	// flows through must reduce total criticality.
	for _, c := range ref.Cells {
		if c.Factor == 1 && c.Delta != 0 {
			t.Errorf("factor-1 cell for %s has delta %v, want 0", c.Module, c.Delta)
		}
		if c.Module == model.ModuleID("PRES_A") && c.Factor == 0 && c.Delta >= 0 {
			t.Errorf("zeroing PRES_A should reduce total criticality, delta %v", c.Delta)
		}
	}
}
