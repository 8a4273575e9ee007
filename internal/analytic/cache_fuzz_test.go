package analytic

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/oracle"
)

// FuzzCachedEngineMatchesFresh drives one long-lived engine through a
// sequence of what-if edits and queries decoded from the fuzz bytes,
// and checks every answer bit for bit against a fresh engine's. The
// first byte picks the system (a Grid, a layered DAG decoded from the
// following bytes, or the cyclic fixture); each later pair of bytes is
// one step:
//
//   - scale a module (ScaleModule: the matrix is replaced by the copy),
//   - zero an edge in place with SetEdge, or put a zeroed edge back,
//   - Profile, Impact, Impacts or Sweep on the current matrix.
//
// The long-lived engine answers from its row, shape and context caches
// wherever an earlier step left something reusable; a fresh engine has
// nothing cached, so any difference is a stale or mis-keyed cache
// entry. Plain `go test` runs the seeds; `go test -fuzz
// FuzzCachedEngineMatchesFresh` explores.
func FuzzCachedEngineMatchesFresh(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 0, 3, 1, 1, 4, 2, 0, 0, 2, 0, 1, 4, 2, 0, 5, 3})
	f.Add([]byte{1, 2, 1, 1, 0, 1, 1, 0x80, 0, 2, 3, 1, 3, 1, 2, 2, 1, 2, 1, 2, 5, 7, 3, 9})
	f.Add([]byte{2, 0, 1, 2, 0, 1, 3, 1, 2, 5, 0, 2, 0, 4, 0, 3, 2, 2, 0, 1, 2, 0})
	f.Add([]byte("long-lived engine, fresh engine, same bits"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		intn := func(n int) int { return next() % n }
		frac := func() float64 { return float64(next()<<8|next()) / (1 << 16) }

		var sys *model.System
		var p *core.Permeability
		switch intn(3) {
		case 0:
			sys, p = Grid(3+intn(3), 2+intn(3))
		case 1:
			sys, p = layeredDAG(intn, frac)
		default:
			sys, p = oracle.CyclicFixture()
		}
		sigs, mods, edges := sys.SignalIDs(), sys.ModuleIDs(), sys.Edges()
		factors := []float64{0, 0.25, 0.5, 1, 1.5, 4}
		zeroed := map[model.Edge]float64{} // edges SetEdge zeroed, with their old values

		e := New()
		for step := 0; len(data) > 0 && step < 64; step++ {
			op, arg := next()%7, next()
			where := fmt.Sprintf("step %d (op %d, arg %d)", step, op, arg)
			switch op {
			case 0:
				q, err := p.ScaleModule(mods[arg%len(mods)], factors[arg/len(mods)%len(factors)])
				if err != nil {
					t.Fatal(err)
				}
				// Zeroed edges of the old matrix stay zero in the copy.
				p = q
			case 1:
				edge := edges[arg%len(edges)]
				v, ok := zeroed[edge]
				if ok {
					delete(zeroed, edge)
				} else {
					zeroed[edge] = p.Get(edge)
				}
				if err := p.SetEdge(edge, v); err != nil {
					t.Fatal(err)
				}
			case 2:
				got, err := e.Profile(p)
				want, werr := New().Profile(p)
				sameErr(t, where, err, werr)
				if err == nil {
					sameProfile(t, where, got, want)
				}
			case 3:
				from, to := sigs[arg%len(sigs)], sigs[arg/len(sigs)%len(sigs)]
				got, err := e.Impact(p, from, to)
				want, werr := New().Impact(p, from, to)
				sameErr(t, where, err, werr)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Impact(%s, %s) = %v, fresh engine %v", where, from, to, got, want)
				}
			case 4:
				from := sigs[arg%len(sigs)]
				got, err := e.Impacts(p, from)
				want, werr := New().Impacts(p, from)
				sameErr(t, where, err, werr)
				sameFloats(t, fmt.Sprintf("%s: Impacts(%s)", where, from), got, want)
			case 5, 6:
				// A module subset and a factor pair, on one or two workers.
				sub := []model.ModuleID{mods[arg%len(mods)], mods[(arg/2+1)%len(mods)]}
				fs := []float64{factors[arg%len(factors)], factors[(arg/3)%len(factors)]}
				got, err := Sweep(e, p, sub, fs, op-4)
				want, werr := Sweep(New(), p, sub, fs, 1)
				sameErr(t, where, err, werr)
				if err == nil {
					sameSweep(t, where, got, want)
				}
			}
		}
	})
}

func sameErr(t *testing.T, where string, got, want error) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: error %v, fresh engine %v", where, got, want)
	}
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, fresh engine %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, fresh engine %v", what, i, got[i], want[i])
		}
	}
}

// sameProfile compares every float of two profiles bit for bit, and
// their three rankings.
func sameProfile(t *testing.T, where string, got, want *core.Profile) {
	t.Helper()
	for _, s := range got.System().SignalIDs() {
		g, err := got.Signal(s)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.Signal(s)
		if err != nil {
			t.Fatal(err)
		}
		sameFloats(t, fmt.Sprintf("%s: profile of %s", where, s),
			[]float64{g.Exposure, g.Impact, g.Criticality, g.MaxInPermeability},
			[]float64{w.Exposure, w.Impact, w.Criticality, w.MaxInPermeability})
		sameFloats(t, fmt.Sprintf("%s: output impacts of %s", where, s), g.Impacts, w.Impacts)
	}
	for _, m := range []core.Metric{core.ByExposure, core.ByImpact, core.ByCriticality} {
		g, w := got.Ranked(m), want.Ranked(m)
		for i := range w {
			if g[i].Signal != w[i].Signal {
				t.Fatalf("%s: %s rank %d is %s, fresh engine %s", where, m, i, g[i].Signal, w[i].Signal)
			}
		}
	}
}

func sameSweep(t *testing.T, where string, got, want *SweepResult) {
	t.Helper()
	if math.Float64bits(got.BaseTotal) != math.Float64bits(want.BaseTotal) || len(got.Cells) != len(want.Cells) {
		t.Fatalf("%s: sweep base %v over %d cells, fresh engine %v over %d",
			where, got.BaseTotal, len(got.Cells), want.BaseTotal, len(want.Cells))
	}
	for i, g := range got.Cells {
		w := want.Cells[i]
		if g.Module != w.Module || g.Top != w.Top {
			t.Fatalf("%s: sweep cell %d is %s/%s, fresh engine %s/%s", where, i, g.Module, g.Top, w.Module, w.Top)
		}
		sameFloats(t, fmt.Sprintf("%s: sweep cell %d (%s ×%v)", where, i, g.Module, g.Factor),
			[]float64{g.Factor, g.TotalCriticality, g.Delta, g.TopCriticality},
			[]float64{w.Factor, w.TotalCriticality, w.Delta, w.TopCriticality})
	}
}
