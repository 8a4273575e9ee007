package analytic

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
)

// FuzzAnalyticMatchesTree builds layered DAGs from the fuzz bytes and
// checks the analytic profile against the tree-based reference:
// exposure and witness permeability bit-equal, impacts and criticality
// within 1e-9 (widened by the solver's reported residual when a path
// weight near 1 leaves the series unconverged), and the three rankings
// identical up to the order of signals whose tree values tie within
// that bound. The matrix must also survive a JSON round trip
// byte-identically. Plain `go test` runs the seeds;
// `go test -fuzz FuzzAnalyticMatchesTree` explores.
func FuzzAnalyticMatchesTree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{1, 1, 0, 2, 0x80, 0, 3, 0x40, 0, 4, 0xff, 0xff, 1, 0, 2, 7, 7})
	f.Add([]byte("layered DAG with dead, certain and fractional edges"))
	// s_0_0 and s_0_1 tie exactly on impact in the tree; the series
	// solver puts s_0_0 1.5e-13 lower, so the impact ranking swaps them.
	f.Add([]byte("01880c0222000"))
	// One edge of weight 65535/65536: the series stops at MaxTerms.
	f.Add([]byte("002220000\xff\xff"))
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
		sys, p := layeredDAG(intn, frac)

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
		for _, s := range sys.SignalIDs() {
			w, _ := ref.Signal(s)
			h, _ := got.Signal(s)
			if w.Exposure != h.Exposure || w.MaxInPermeability != h.MaxInPermeability {
				t.Errorf("%s: exposure/witness %v/%v, want %v/%v",
					s, h.Exposure, h.MaxInPermeability, w.Exposure, w.MaxInPermeability)
			}
			for o, want := range w.ImpactOn {
				if math.Abs(h.ImpactOn[o]-want) > eps {
					t.Errorf("impact %s->%s: analytic %v, tree %v", s, o, h.ImpactOn[o], want)
				}
			}
			if math.Abs(w.Criticality-h.Criticality) > eps {
				t.Errorf("%s: criticality %v, want %v", s, h.Criticality, w.Criticality)
			}
		}
		for _, m := range []core.Metric{core.ByExposure, core.ByImpact, core.ByCriticality} {
			want, have := ref.Ranked(m), got.Ranked(m)
			for i := range want {
				if want[i].Signal == have[i].Signal {
					continue
				}
				// The series solver is exact only within eps, so signals
				// whose tree values tie may trade places.
				h, _ := ref.Signal(have[i].Signal)
				if math.Abs(metricValue(m, want[i])-metricValue(m, h)) > eps {
					t.Fatalf("%s rank %d: analytic %s, tree %s", m, i, have[i].Signal, want[i].Signal)
				}
			}
		}

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
