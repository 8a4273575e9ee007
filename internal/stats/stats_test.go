package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestProportionEstimate(t *testing.T) {
	var p Proportion
	if got := p.Estimate(); got != 0 {
		t.Errorf("empty Estimate = %v, want 0", got)
	}
	p.Add(true)
	p.Add(true)
	p.Add(false)
	p.Add(true)
	if got := p.Estimate(); got != 0.75 {
		t.Errorf("Estimate = %v, want 0.75", got)
	}
	if got := p.String(); got != "3/4 = 0.750" {
		t.Errorf("String = %q", got)
	}
}

func TestWilsonCI(t *testing.T) {
	p := Proportion{Successes: 50, Trials: 100}
	lo, hi := p.WilsonCI(1.96)
	if lo >= 0.5 || hi <= 0.5 {
		t.Errorf("CI [%v, %v] does not contain the point estimate", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Errorf("CI [%v, %v] too wide for n=100", lo, hi)
	}

	// Near-boundary estimates stay in [0,1] (the Wilson advantage).
	edge := Proportion{Successes: 0, Trials: 20}
	lo, hi = edge.WilsonCI(1.96)
	if lo != 0 || hi <= 0 || hi >= 0.5 {
		t.Errorf("boundary CI = [%v, %v]", lo, hi)
	}

	// Empty sample: maximal uncertainty.
	lo, hi = Proportion{}.WilsonCI(1.96)
	if lo != 0 || hi != 1 {
		t.Errorf("empty CI = [%v, %v], want [0, 1]", lo, hi)
	}
}

// Property: the Wilson interval always contains the point estimate and
// stays within [0,1]; more trials never widen it (at fixed rate).
func TestQuickWilsonProperties(t *testing.T) {
	f := func(succ8, trials8 uint8) bool {
		trials := int(trials8%100) + 1
		succ := int(succ8) % (trials + 1)
		p := Proportion{Successes: succ, Trials: trials}
		lo, hi := p.WilsonCI(1.96)
		if lo < 0 || hi > 1 || lo > hi {
			return false
		}
		est := p.Estimate()
		if est < lo-1e-12 || est > hi+1e-12 {
			return false
		}
		// Scale up 4x at the same rate: the interval must shrink.
		p4 := Proportion{Successes: succ * 4, Trials: trials * 4}
		lo4, hi4 := p4.WilsonCI(1.96)
		return hi4-lo4 <= hi-lo+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWilsonCIEdgeCases(t *testing.T) {
	// 0/0: no information, maximal uncertainty.
	lo, hi := Proportion{}.WilsonCI(1.96)
	if lo != 0 || hi != 1 {
		t.Errorf("0/0 CI = [%v, %v], want [0, 1]", lo, hi)
	}
	// 0/n: lower bound pinned at 0, upper bound strictly inside (0, 1)
	// and shrinking with n.
	prev := 1.0
	for _, n := range []int{1, 10, 100, 1000} {
		lo, hi = Proportion{Successes: 0, Trials: n}.WilsonCI(1.96)
		if lo != 0 {
			t.Errorf("0/%d lo = %v, want 0", n, lo)
		}
		if hi <= 0 || hi >= prev {
			t.Errorf("0/%d hi = %v, want in (0, %v)", n, hi, prev)
		}
		prev = hi
	}
	// n/n mirrors 0/n: upper bound pinned at 1, lower bound rising.
	prev = 0
	for _, n := range []int{1, 10, 100, 1000} {
		lo, hi = Proportion{Successes: n, Trials: n}.WilsonCI(1.96)
		if hi < 1-1e-12 || hi > 1 {
			t.Errorf("%d/%d hi = %v, want 1", n, n, hi)
		}
		if lo <= prev && n > 1 {
			t.Errorf("%d/%d lo = %v, want > %v", n, n, lo, prev)
		}
		prev = lo
	}
}

func TestAddN(t *testing.T) {
	var p Proportion
	p.AddN(true, 3)
	p.AddN(false, 2)
	p.AddN(true, 0)  // no-op
	p.AddN(true, -5) // no-op
	if p.Successes != 3 || p.Trials != 5 {
		t.Errorf("AddN accumulated %d/%d, want 3/5", p.Successes, p.Trials)
	}
}

func TestStopRuleFloor(t *testing.T) {
	r := StopRule{Z: 1.96, HalfWidth: 0.05, MinTrials: 100}
	// Below the floor the rule never fires, even at 0/n where the
	// Wilson interval is already razor thin.
	for n := 0; n < 100; n++ {
		if r.Converged(Proportion{Successes: 0, Trials: n}) {
			t.Fatalf("rule fired at %d trials, below the %d floor", n, r.MinTrials)
		}
	}
	if !r.Converged(Proportion{Successes: 0, Trials: 100}) {
		t.Error("rule must fire at the floor when the interval is tight (0/100)")
	}
	// A maximally uncertain estimate at the floor must not stop:
	// 50/100 has a Wilson half-width near 0.097 > 0.05.
	if r.Converged(Proportion{Successes: 50, Trials: 100}) {
		t.Error("rule fired on a wide interval (50/100 at ±0.05)")
	}
	// Disabled rule never converges.
	off := StopRule{Z: 1.96, HalfWidth: 0, MinTrials: 0}
	if off.Converged(Proportion{Successes: 0, Trials: 1 << 20}) {
		t.Error("disabled rule (HalfWidth 0) converged")
	}
}

// Property: re-weighted pruned estimates equal exact estimates when
// every equivalence class has size 1 — AddN(x, 1) per representative is
// then literally Add(x), so pruning with trivial classes is the exact
// campaign.
func TestQuickSingletonClassReweighting(t *testing.T) {
	f := func(outcomes []bool) bool {
		var exact, pruned Proportion
		for _, o := range outcomes {
			exact.Add(o)
			pruned.AddN(o, 1)
		}
		return exact == pruned
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AddN(x, n) is n repetitions of Add(x), and the stopping
// rule is monotone in the floor — raising MinTrials never lets a
// stopped stream keep running longer than the tighter rule allows.
func TestQuickAddNEquivalence(t *testing.T) {
	f := func(succ bool, n8 uint8) bool {
		n := int(n8)
		var a, b Proportion
		a.AddN(succ, n)
		for i := 0; i < n; i++ {
			b.Add(succ)
		}
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50}, {0.125, 15},
		{-1, 10}, {2, 50},
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(nil) = %v", got)
	}
	// Input must not be reordered.
	in := []float64{3, 1, 2}
	Quantile(in, 0.5)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

// Property: the quantile of any slice lies within [min, max] and is
// monotone in q.
func TestQuickQuantileProperties(t *testing.T) {
	f := func(raw []uint8, qa, qb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := float64(raw[0]), float64(raw[0])
		for i, r := range raw {
			xs[i] = float64(r)
			if xs[i] < lo {
				lo = xs[i]
			}
			if xs[i] > hi {
				hi = xs[i]
			}
		}
		q1, q2 := float64(qa)/255, float64(qb)/255
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1, v2 := Quantile(xs, q1), Quantile(xs, q2)
		return v1 >= lo && v2 <= hi && v1 <= v2+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
