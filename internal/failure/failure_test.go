package failure

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/physics"
)

func TestMaxRetardForceCurve(t *testing.T) {
	l := DefaultLimits()
	g := physics.StandardGravity

	// Slow engagement: floor applies (1.2 g of weight).
	slow := l.MaxRetardForceN(10000, 30)
	if want := 1.2 * 10000 * g; slow != want {
		t.Errorf("F_max(10t, 30 m/s) = %.0f, want floor %.0f", slow, want)
	}

	// Very fast engagement: cap applies (3.2 g of weight).
	fast := l.MaxRetardForceN(10000, 200)
	if want := 3.2 * 10000 * g; fast != want {
		t.Errorf("F_max(10t, 200 m/s) = %.0f, want cap %.0f", fast, want)
	}

	// Mid-range: 1.8x the nominal 250 m stop force.
	mid := l.MaxRetardForceN(10000, 80)
	if want := 1.8 * 10000 * 80 * 80 / (2 * 250); mid != want {
		t.Errorf("F_max(10t, 80 m/s) = %.0f, want %.0f", mid, want)
	}
}

// Property: F_max is monotone in mass and velocity within the envelope.
func TestQuickForceLimitMonotone(t *testing.T) {
	l := DefaultLimits()
	f := func(mSel, vSel uint8) bool {
		m := 8000 + float64(mSel%40)*250
		v := 40 + float64(vSel%40)
		return l.MaxRetardForceN(m+250, v) >= l.MaxRetardForceN(m, v) &&
			l.MaxRetardForceN(m, v+1) >= l.MaxRetardForceN(m, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func stoppedPlant(t *testing.T, duty int64) *physics.Plant {
	t.Helper()
	pl := physics.New(physics.DefaultParams(12000, 60, 1))
	pl.SetValveDuty(duty)
	for i := 0; i < 60000 && !pl.Stopped(); i++ {
		pl.StepMs(1)
	}
	return pl
}

// nominalDuty returns the valve duty approximating a constant-force stop
// in ~260 m for the given scenario.
func nominalDuty(p physics.Params) int64 {
	force := p.MassKg * p.EngageVelocityMps * p.EngageVelocityMps / (2 * 260)
	duty := force / p.BrakeGain * 255
	if duty > 255 {
		duty = 255
	}
	return int64(duty)
}

func TestClassifySuccessfulArrest(t *testing.T) {
	pl := stoppedPlant(t, nominalDuty(physics.DefaultParams(12000, 60, 1)))
	rep := Classify(pl, pl.Stopped(), DefaultLimits())
	if rep.Failed() {
		t.Fatalf("nominal arrest classified as failure: %v", rep)
	}
	if !strings.HasPrefix(rep.String(), "OK") {
		t.Errorf("String() = %q, want OK prefix", rep.String())
	}
	if rep.StoppingDistanceM <= 0 || rep.MaxForceN <= 0 {
		t.Errorf("report missing observables: %+v", rep)
	}
}

func TestClassifyNotArrested(t *testing.T) {
	pl := physics.New(physics.DefaultParams(12000, 60, 1))
	pl.StepMs(100) // brakes never applied, still rolling
	rep := Classify(pl, false, DefaultLimits())
	if !rep.Failed() {
		t.Fatal("non-arrested run classified as success")
	}
	if !rep.Has(ViolationNotArrested) {
		t.Errorf("violations = %v, want not-arrested", rep.Violations)
	}
	if !strings.HasPrefix(rep.String(), "FAILURE") {
		t.Errorf("String() = %q, want FAILURE prefix", rep.String())
	}
}

func TestClassifyDistanceViolation(t *testing.T) {
	// Very weak braking: aircraft rolls past 335 m before stopping.
	pl := physics.New(physics.DefaultParams(16000, 80, 1))
	pl.SetValveDuty(20)
	for i := 0; i < 120000 && !pl.Stopped(); i++ {
		pl.StepMs(1)
	}
	rep := Classify(pl, pl.Stopped(), DefaultLimits())
	if !rep.Has(ViolationDistance) {
		t.Errorf("violations = %v, want distance violation at %.0f m", rep.Violations, rep.StoppingDistanceM)
	}
}

func TestClassifyForceViolation(t *testing.T) {
	// Full brake slammed on a light, slow aircraft exceeds its F_max
	// floor but stays under 3.5 g only if gains are moderate; verify the
	// force check fires when MaxForceN crosses the limit.
	l := DefaultLimits()
	pl := stoppedPlant(t, 255)
	rep := Classify(pl, pl.Stopped(), l)
	if rep.MaxForceN >= rep.ForceLimitN && !rep.Has(ViolationForce) {
		t.Errorf("force %.0f >= limit %.0f but no violation", rep.MaxForceN, rep.ForceLimitN)
	}
	if rep.MaxForceN < rep.ForceLimitN && rep.Has(ViolationForce) {
		t.Errorf("force %.0f < limit %.0f but violation reported", rep.MaxForceN, rep.ForceLimitN)
	}
}

func TestViolationStrings(t *testing.T) {
	for _, v := range []Violation{ViolationRetardation, ViolationForce, ViolationDistance, ViolationNotArrested, Violation(99)} {
		if v.String() == "" {
			t.Errorf("Violation(%d).String() empty", int(v))
		}
	}
}

func TestReportHas(t *testing.T) {
	rep := Report{Violations: []Violation{ViolationDistance}}
	if !rep.Has(ViolationDistance) {
		t.Error("Has(distance) = false")
	}
	if rep.Has(ViolationForce) {
		t.Error("Has(force) = true, want false")
	}
}

// Has reports whether a specific violation occurred.
func (r Report) Has(v Violation) bool {
	for _, got := range r.Violations {
		if got == v {
			return true
		}
	}
	return false
}
