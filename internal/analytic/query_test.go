package analytic

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/paper"
)

// TestPlacementQueryAllocs bounds what a placement query allocates
// beyond its profile: three rankings, the PA selection and its
// selected list on Grid(12,8). Each ranking is one position slice and
// one result, the selection one candidate and one shared rule array,
// the selected list one pointer and one name slice: 10 allocations.
// The system's output list is built once with the system and costs
// none.
func TestPlacementQueryAllocs(t *testing.T) {
	_, p := Grid(12, 8)
	pr, err := New().Profile(p)
	if err != nil {
		t.Fatal(err)
	}
	th := core.DefaultThresholds()
	allocs := testing.AllocsPerRun(20, func() {
		for _, m := range []core.Metric{core.ByExposure, core.ByImpact, core.ByCriticality} {
			pr.Ranked(m)
		}
		core.SelectPA(pr, th).Selected()
	})
	t.Logf("placement query: %v allocations", allocs)
	if allocs > 10 {
		t.Errorf("placement query made %v allocations, want at most 10", allocs)
	}
}

// TestProfileAllocs bounds what a profile allocates on Grid(12,8).
// Warm, every row a cache hit: the matrix copy and its module hashes,
// the exposure and witness sums, the signal profiles and the Profile
// itself — 6 allocations. Cold, from a new engine: the topology, the
// shape (with one active out-edge list per signal), the context and
// every row, one row struct and one value slice per signal — 349
// allocations.
func TestProfileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, p := Grid(12, 8)
	warm := New()
	if _, err := warm.Profile(p); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		bound float64
		run   func()
	}{
		{"warm", 6, func() { warm.Profile(p) }},
		{"cold", 349, func() { New().Profile(p) }},
	} {
		allocs := testing.AllocsPerRun(20, c.run)
		t.Logf("%s profile: %v allocations", c.name, allocs)
		if allocs > c.bound {
			t.Errorf("%s profile made %v allocations, want at most %v", c.name, allocs, c.bound)
		}
	}
}

// topOracle is makeCell's top signal as it stood before the argmax
// scan: the first non-output of the criticality ranking.
func topOracle(pr *core.Profile) (model.SignalID, float64) {
	for _, sp := range pr.Ranked(core.ByCriticality) {
		if sp.Kind != model.KindSystemOutput {
			return sp.Signal, sp.Criticality
		}
	}
	return "", 0
}

// TestMakeCellTopMatchesRanking: the argmax scan picks the ranking's
// first non-output on real profiles and on profiles whose
// criticalities tie exactly, in shuffled name order.
func TestMakeCellTopMatchesRanking(t *testing.T) {
	var profiles []*core.Profile
	_, g := Grid(12, 8)
	for _, p := range []*core.Permeability{paper.Table1(), g} {
		pr, err := New().Profile(p)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, pr)
		var tied []core.SignalProfile
		for i, sp := range pr.Signals() {
			sp.Criticality = float64(i%3) / 2
			tied = append(tied, sp)
		}
		for i := range tied {
			j := (i * 7) % len(tied)
			tied[i], tied[j] = tied[j], tied[i]
		}
		profiles = append(profiles, core.NewProfile(p, tied))
	}
	for i, pr := range profiles {
		c := makeCell("M", 1, pr, 0)
		top, crit := topOracle(pr)
		if c.Top != top || math.Float64bits(c.TopCriticality) != math.Float64bits(crit) {
			t.Errorf("profile %d: top %s (%v), ranking gives %s (%v)", i, c.Top, c.TopCriticality, top, crit)
		}
	}
}

// TestTreeCriticalityDeterministic: the tree reference folds Eq. 4 over
// the outputs in declaration order, so repeated calls agree to the
// bit. Grid(5,4) has four outputs and reconvergent paths, where a fold
// in map order gave two different results for several signals.
func TestTreeCriticalityDeterministic(t *testing.T) {
	sys, p := Grid(5, 4)
	ref, err := core.BuildProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sys.SignalIDs() {
		sp, _ := ref.Signal(s)
		for i := 0; i < 50; i++ {
			c, err := core.Criticality(p, s)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(c) != math.Float64bits(sp.Criticality) {
				t.Fatalf("%s: call %d gave criticality %v, BuildProfile %v", s, i, c, sp.Criticality)
			}
		}
	}
}

// TestSinglePathCriticalityIsTreeExact: where every output impact of a
// signal comes over at most one positive-weight path, both engines
// fold the same bits in the same order, so the criticalities are
// bit-equal.
func TestSinglePathCriticalityIsTreeExact(t *testing.T) {
	_, g := Grid(5, 4)
	inputs := []*core.Permeability{g}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, p := layeredDAG(rng.Intn, rng.Float64)
		inputs = append(inputs, p)
	}
	checked := 0
	for _, p := range inputs {
		sys := p.System()
		pr, err := New().Profile(p)
		if err != nil {
			t.Fatal(err)
		}
	signals:
		for _, s := range sys.SignalIDs() {
			for _, o := range sys.SystemOutputs() {
				if positivePaths(t, p, s, o) >= 2 {
					continue signals
				}
			}
			want, err := core.Criticality(p, s)
			if err != nil {
				t.Fatal(err)
			}
			sp, _ := pr.Signal(s)
			if math.Float64bits(sp.Criticality) != math.Float64bits(want) {
				t.Errorf("%s %s: analytic criticality %v, tree %v", sys.Name(), s, sp.Criticality, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no single-path signal checked")
	}
}
