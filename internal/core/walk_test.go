// The walk-versus-tree comparisons run in the external test package so
// that they can profile the paper's Table 1 matrix and the solver's
// and the oracle's fixtures, whose packages import core.
package core_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/oracle"
	"repro/internal/paper"
)

// treeImpacts is the oracle of BuildProfile's walk: I(s → o) for every
// system output o, in declaration order, folded by ImpactFromPaths over
// the paths of a materialised impact tree.
func treeImpacts(t *testing.T, p *core.Permeability, s model.SignalID) []float64 {
	t.Helper()
	tree, err := core.BuildImpactTree(p, s)
	if err != nil {
		t.Fatal(err)
	}
	outs := p.System().SystemOutputs()
	imps := make([]float64, len(outs))
	for i, o := range outs {
		if o == s {
			imps[i] = 1
			continue
		}
		imps[i] = core.ImpactFromPaths(tree.PathsTo(o))
	}
	return imps
}

// treeCriticality folds Eq. 4 over the tree impacts in output
// declaration order; an output missing from crits contributes nothing.
func treeCriticality(outs []model.SignalID, imps []float64, crits map[model.SignalID]float64) float64 {
	prod := 1.0
	for i, o := range outs {
		if co, ok := crits[o]; ok {
			prod *= 1 - co*imps[i]
		}
	}
	return min(1, max(0, 1-prod))
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// walkFixtures are the matrices the walk is checked on: the paper's
// Table 1, multi-output grids, cyclic systems and random layered DAGs.
func walkFixtures(t *testing.T) []*core.Permeability {
	t.Helper()
	_, g54 := analytic.Grid(5, 4)
	_, g43 := analytic.Grid(4, 3)
	_, cyc := oracle.CyclicFixture()
	loop := core.NewPermeability(core.LoopSystem(t))
	loop.MustSet("M", 1, 1, 0.3)
	loop.MustSet("M", 1, 2, 0.6)
	loop.MustSet("M", 2, 1, 0.9)
	loop.MustSet("M", 2, 2, 0.7)
	ps := []*core.Permeability{paper.Table1(), g54, g43, cyc, loop}
	for seed := int64(1); seed <= 40; seed++ {
		_, p := core.RandomDAG(seed)
		ps = append(ps, p)
	}
	return ps
}

// TestWalkMatchesTree: BuildProfile's walk and CriticalityWith give, bit
// for bit, what the materialised impact trees give — every signal ×
// output impact, the max impact, the criticality under the declared
// and under a partial policy, and the exposure and witness sums.
func TestWalkMatchesTree(t *testing.T) {
	for _, p := range walkFixtures(t) {
		sys := p.System()
		outs := sys.SystemOutputs()
		declared := make(map[model.SignalID]float64)
		partial := make(map[model.SignalID]float64)
		for i, o := range outs {
			sig, _ := sys.Signal(o)
			declared[o] = sig.Criticality
			if i%2 == 0 {
				partial[o] = 0.5
			}
		}
		pr, err := core.BuildProfile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sys.SignalIDs() {
			sp, err := pr.Signal(s)
			if err != nil {
				t.Fatal(err)
			}
			want := treeImpacts(t, p, s)
			if len(sp.Impacts) != len(want) {
				t.Fatalf("%s: %s has %d output impacts, want %d", sys.Name(), s, len(sp.Impacts), len(want))
			}
			maxImp := 0.0
			for i, o := range outs {
				if !sameBits(sp.Impacts[i], want[i]) {
					t.Errorf("%s: walk I(%s→%s) = %v, tree %v", sys.Name(), s, o, sp.Impacts[i], want[i])
				}
				if imp, err := core.Impact(p, s, o); err != nil || !sameBits(imp, want[i]) {
					t.Errorf("%s: Impact(%s, %s) = %v (%v), tree %v", sys.Name(), s, o, imp, err, want[i])
				}
				if got := pr.ImpactOn(sp, o); !sameBits(got, want[i]) {
					t.Errorf("%s: ImpactOn(%s, %s) = %v, tree %v", sys.Name(), s, o, got, want[i])
				}
				maxImp = max(maxImp, want[i])
			}
			if !sameBits(sp.Impact, maxImp) {
				t.Errorf("%s: %s max impact %v, tree %v", sys.Name(), s, sp.Impact, maxImp)
			}
			if c := treeCriticality(outs, want, declared); !sameBits(sp.Criticality, c) {
				t.Errorf("%s: %s criticality %v, tree %v", sys.Name(), s, sp.Criticality, c)
			}
			for _, crits := range []map[model.SignalID]float64{declared, partial} {
				got, err := core.CriticalityWith(p, s, crits)
				if c := treeCriticality(outs, want, crits); err != nil || !sameBits(got, c) {
					t.Errorf("%s: CriticalityWith(%s, %v) = %v (%v), tree %v", sys.Name(), s, crits, got, err, c)
				}
			}
			x, _ := p.SignalExposure(s)
			witness := 0.0
			for _, e := range sys.InEdges(s) {
				witness = max(witness, p.Get(e))
			}
			if !sameBits(sp.Exposure, x) || !sameBits(sp.MaxInPermeability, witness) {
				t.Errorf("%s: %s exposure/witness %v/%v, want %v/%v",
					sys.Name(), s, sp.Exposure, sp.MaxInPermeability, x, witness)
			}
		}
		if ord := pr.ImpactOn(pr.Signals()[0], "no-such-output"); ord != 0 {
			t.Errorf("%s: ImpactOn an unknown output = %v, want 0", sys.Name(), ord)
		}
	}
}

// TestWalkKeepsNodeCap: a fan-out whose impact tree would pass
// DefaultMaxTreeNodes fails BuildProfile and CriticalityWith with the
// impact tree's cap error, without building the tree. 21 fully
// cross-wired ranks of two give the first signal 2^21 − 1 tree nodes.
func TestWalkKeepsNodeCap(t *testing.T) {
	_, p := core.FanoutSystem(t, 21)
	const want = `core: impact tree rooted at "l0_0": exceeds 1048576 nodes`
	if _, err := core.BuildProfile(p); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("BuildProfile error %v, want prefix %q", err, want)
	}
	crits := map[model.SignalID]float64{"l20_0": 1}
	if _, err := core.CriticalityWith(p, "l0_0", crits); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("CriticalityWith error %v, want prefix %q", err, want)
	}
	// One rank fewer fits the cap exactly: 2^20 − 1 nodes.
	_, p = core.FanoutSystem(t, 20)
	if _, err := core.CriticalityWith(p, "l0_0", map[model.SignalID]float64{"l19_0": 1}); err != nil {
		t.Errorf("a walk of 2^20 − 1 nodes failed: %v", err)
	}
}
