package analytic

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// FuzzAnalyticMatchesTree builds layered DAGs from the fuzz bytes and
// checks the analytic profile against the tree-based reference:
// exposure and witness permeability bit-equal, every impact reached
// over at most one positive-weight path bit-equal to core.Impact (and
// the criticality of a signal whose output impacts all are), other
// impacts and criticality within 1e-9 (widened by the solver's reported
// residual when a path weight near 1 leaves the series unconverged),
// and the three rankings identical up to the order of signals whose
// tree values tie within that bound and that reach some output over two
// or more paths. Every profile impact must be bit-equal to a fresh
// engine's full Impacts row, and the matrix must survive a JSON round
// trip byte-identically. Plain `go test` runs the seeds;
// `go test -fuzz FuzzAnalyticMatchesTree` explores.
func FuzzAnalyticMatchesTree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{1, 1, 0, 2, 0x80, 0, 3, 0x40, 0, 4, 0xff, 0xff, 1, 0, 2, 7, 7})
	f.Add([]byte("layered DAG with dead, certain and fractional edges"))
	// s_0_0, s_0_1 and s_1_0 reach s_2_0 over one path of weight
	// 0.188232421875 and tie exactly in the tree; the series once put
	// s_0_0 1.5e-13 lower and swapped the impact ranking.
	f.Add([]byte("01880c0222000"))
	// One edge of weight 65535/65536: the series stops at MaxTerms.
	f.Add([]byte("002220000\xff\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, p := fuzzDAG(data)

		ref, err := core.BuildProfile(p)
		if err != nil {
			t.Fatal(err)
		}
		e := New()
		got, err := e.Profile(p)
		if err != nil {
			t.Fatal(err)
		}
		// An unconverged series (a path weight near 1 exhausts
		// Params.MaxTerms) reports its truncation bound as the residual.
		d, err := e.Diagnose(p)
		if err != nil {
			t.Fatal(err)
		}
		eps := tol + float64(len(sys.SystemOutputs()))*d.Residual
		// multiPath marks the signals that reach some output over two or
		// more positive-weight paths: only their values may be inexact.
		multiPath := make(map[model.SignalID]bool)
		for _, s := range sys.SignalIDs() {
			w, _ := ref.Signal(s)
			h, _ := got.Signal(s)
			if w.Exposure != h.Exposure || w.MaxInPermeability != h.MaxInPermeability {
				t.Errorf("%s: exposure/witness %v/%v, want %v/%v",
					s, h.Exposure, h.MaxInPermeability, w.Exposure, w.MaxInPermeability)
			}
			if len(h.Impacts) != len(w.Impacts) {
				t.Fatalf("%s: %d output impacts, tree %d", s, len(h.Impacts), len(w.Impacts))
			}
			for oi, o := range sys.SystemOutputs() {
				want, have := w.Impacts[oi], h.Impacts[oi]
				if positivePaths(t, p, s, o) >= 2 {
					multiPath[s] = true
				} else if math.Float64bits(have) != math.Float64bits(want) {
					t.Errorf("single-path impact %s->%s: analytic %v, tree %v (must be bit-equal)",
						s, o, have, want)
				}
				if math.Abs(have-want) > eps {
					t.Errorf("impact %s->%s: analytic %v, tree %v", s, o, have, want)
				}
			}
			if math.Abs(w.Criticality-h.Criticality) > eps {
				t.Errorf("%s: criticality %v, want %v", s, h.Criticality, w.Criticality)
			}
			if !multiPath[s] && h.Criticality != w.Criticality {
				t.Errorf("%s: single-path criticality %v, tree %v (must be bit-equal)", s, h.Criticality, w.Criticality)
			}
		}
		for _, m := range []core.Metric{core.ByExposure, core.ByImpact, core.ByCriticality} {
			want, have := ref.Ranked(m), got.Ranked(m)
			for i := range want {
				if want[i].Signal == have[i].Signal {
					continue
				}
				// The series solver is exact only within eps, so signals
				// whose tree values tie may trade places when one of them
				// has a multi-path value.
				h, _ := ref.Signal(have[i].Signal)
				tie := math.Abs(metricValue(m, want[i])-metricValue(m, h)) <= eps
				if !tie || !(multiPath[want[i].Signal] || multiPath[have[i].Signal]) {
					t.Fatalf("%s rank %d: analytic %s, tree %s", m, i, have[i].Signal, want[i].Signal)
				}
			}
		}

		// Profile solves rows scoped to the outputs; they must be
		// bit-equal there to a fresh engine's full rows.
		sameOutputRows(t, got)

		first, err := p.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := core.UnmarshalPermeability(sys, first)
		if err != nil {
			t.Fatalf("marshaled matrix does not decode: %v\n%s", err, first)
		}
		second, err := back.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip is not stable:\n%s\n---\n%s", first, second)
		}
	})
}

func metricValue(m core.Metric, sp core.SignalProfile) float64 {
	switch m {
	case core.ByExposure:
		return sp.Exposure
	case core.ByImpact:
		return sp.Impact
	default:
		return sp.Criticality
	}
}

// fuzzDAG decodes fuzz bytes into a layeredDAG: one byte per shape
// choice, two per fractional permeability, zeros once the bytes run
// out.
func fuzzDAG(data []byte) (*model.System, *core.Permeability) {
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
	return layeredDAG(intn, frac)
}

// positivePaths counts the tree's paths from s to o of positive weight.
func positivePaths(t *testing.T, p *core.Permeability, s, o model.SignalID) int {
	t.Helper()
	tree, err := core.BuildImpactTree(p, s)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, path := range tree.PathsTo(o) {
		if path.Weight > 0 {
			n++
		}
	}
	return n
}
