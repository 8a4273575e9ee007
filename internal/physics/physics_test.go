package physics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func defaultPlant() *Plant {
	return New(DefaultParams(12000, 60, 1))
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams(12000, 60, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero mass", func(p *Params) { p.MassKg = 0 }},
		{"negative velocity", func(p *Params) { p.EngageVelocityMps = -1 }},
		{"zero brake gain", func(p *Params) { p.BrakeGain = 0 }},
		{"zero tau", func(p *Params) { p.TauMs = 0 }},
		{"zero pulse spacing", func(p *Params) { p.MetersPerPulse = 0 }},
		{"zero timer tick", func(p *Params) { p.TimerTickUs = 0 }},
		{"zero runway", func(p *Params) { p.RunwayLengthM = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := good
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
}

func TestCoastingWithoutBrakeBarelyDecelerates(t *testing.T) {
	pl := defaultPlant()
	pl.StepMs(1000)
	// Only drag and rolling resistance: well under 0.2 g for a 12 t jet.
	if r := pl.MaxRetardationG(); r > 0.2 {
		t.Errorf("coasting retardation = %.3f g, want < 0.2 g", r)
	}
	if pl.Velocity() >= 60 {
		t.Errorf("velocity did not decrease: %v", pl.Velocity())
	}
	if pl.Distance() < 55 {
		t.Errorf("distance after 1 s at ~60 m/s = %.1f m, want > 55", pl.Distance())
	}
}

func TestFullBrakeStopsAircraft(t *testing.T) {
	pl := defaultPlant()
	pl.SetValveDuty(255)
	for i := 0; i < 60_000 && !pl.Stopped(); i++ {
		pl.StepMs(1)
	}
	if !pl.Stopped() {
		t.Fatal("aircraft did not stop within 60 s under full brake")
	}
	if d := pl.Distance(); d > 335 {
		t.Errorf("full-brake stopping distance %.1f m exceeds runway", d)
	}
}

func TestHydraulicLag(t *testing.T) {
	pl := defaultPlant()
	pl.SetValveDuty(255)
	pl.StepMs(1)
	if p := pl.Pressure(); p > 0.05 {
		t.Errorf("pressure %.3f after 1 ms, want lag (< 0.05)", p)
	}
	pl.StepMs(int64(pl.Params().TauMs))
	p1 := pl.Pressure()
	if p1 < 0.55 || p1 > 0.72 {
		t.Errorf("pressure after one tau = %.3f, want ~1-1/e = 0.632", p1)
	}
	pl.StepMs(5 * int64(pl.Params().TauMs))
	if p := pl.Pressure(); p < 0.95 {
		t.Errorf("pressure after 6 tau = %.3f, want near 1", p)
	}
}

func TestValveDutyClamped(t *testing.T) {
	pl := defaultPlant()
	pl.SetValveDuty(-10)
	pl.StepMs(500)
	if p := pl.Pressure(); p != 0 {
		t.Errorf("pressure %.3f with negative duty, want 0", p)
	}
	pl.SetValveDuty(999)
	pl.StepMs(3000)
	if p := pl.Pressure(); p > pl.Params().PMax {
		t.Errorf("pressure %.3f exceeds PMax", p)
	}
}

func TestPulseCounterTracksDistance(t *testing.T) {
	pl := defaultPlant()
	pl.StepMs(500) // ~30 m at 60 m/s
	wantPulses := int64(pl.Distance() / pl.Params().MetersPerPulse)
	if got := int64(pl.PACNT()); got != wantPulses&0xFFFF {
		t.Errorf("PACNT = %d, want %d", got, wantPulses)
	}
}

func TestTimersAre16Bit(t *testing.T) {
	pl := defaultPlant()
	pl.StepMs(10_000) // 100k timer ticks at 0.1 ms: must wrap
	if got := pl.TCNT(); got > 0xFFFF {
		t.Errorf("TCNT = %d, want 16-bit", got)
	}
	if got := pl.TIC1(); got > 0xFFFF {
		t.Errorf("TIC1 = %d, want 16-bit", got)
	}
}

func TestTIC1CapturesLastPulseTime(t *testing.T) {
	pl := defaultPlant()
	pl.StepMs(100)
	tic := pl.TIC1()
	tcnt := pl.TCNT()
	// At 60 m/s a pulse arrives every ~1.7 ms, i.e. within ~17 timer
	// ticks of now (modulo wrap, irrelevant this early).
	if tic > tcnt {
		t.Fatalf("TIC1 %d after TCNT %d", tic, tcnt)
	}
	if tcnt-tic > 40 {
		t.Errorf("last pulse %d ticks ago, want recent at 60 m/s", tcnt-tic)
	}
}

func TestADCWithinRangeAndTracksPressure(t *testing.T) {
	pl := defaultPlant()
	pl.SetValveDuty(255)
	pl.StepMs(3000)
	adc := pl.ADC()
	if adc < 0 || adc > 1023 {
		t.Fatalf("ADC = %d outside 10-bit range", adc)
	}
	want := int64(pl.Pressure() / pl.Params().PMax * 1023)
	if diff := int64(adc) - want; diff < -3 || diff > 3 {
		t.Errorf("ADC = %d, want %d ± noise", adc, want)
	}
}

func TestADCNoiseIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []int64 {
		pl := New(DefaultParams(12000, 60, seed))
		pl.SetValveDuty(128)
		var out []int64
		for i := 0; i < 200; i++ {
			pl.StepMs(1)
			out = append(out, int64(pl.ADC()))
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverge at step %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical noise sequences")
	}
}

func TestEnergyDecreasesMonotonically(t *testing.T) {
	pl := defaultPlant()
	pl.SetValveDuty(200)
	prev := pl.KineticEnergyJ()
	for i := 0; i < 5000; i++ {
		pl.StepMs(1)
		e := pl.KineticEnergyJ()
		if e > prev+1e-9 {
			t.Fatalf("kinetic energy increased at step %d: %v -> %v", i, prev, e)
		}
		prev = e
	}
}

func TestDistanceMonotoneVelocityNonNegative(t *testing.T) {
	pl := defaultPlant()
	pl.SetValveDuty(255)
	prevX := 0.0
	for i := 0; i < 30_000; i++ {
		pl.StepMs(1)
		if pl.Distance() < prevX {
			t.Fatalf("distance decreased at step %d", i)
		}
		prevX = pl.Distance()
		if pl.Velocity() < 0 {
			t.Fatalf("velocity negative at step %d", i)
		}
	}
}

// Property: for any admissible mass/velocity in the paper's envelope and
// any constant duty, the plant keeps its core invariants over 2 s.
func TestQuickPlantInvariants(t *testing.T) {
	f := func(mSel, vSel uint8, duty uint8) bool {
		mass := 8000 + float64(mSel%5)*2000 // 8..16 t
		vel := 50 + float64(vSel%5)*7.5     // 50..80 m/s
		pl := New(DefaultParams(mass, vel, int64(mSel)*31+int64(vSel)))
		pl.SetValveDuty(model.Word(duty))
		prevE := pl.KineticEnergyJ()
		for i := 0; i < 2000; i++ {
			pl.StepMs(1)
			if pl.Velocity() < 0 || pl.Distance() < 0 {
				return false
			}
			if pl.Pressure() < 0 || pl.Pressure() > pl.Params().PMax {
				return false
			}
			e := pl.KineticEnergyJ()
			if e > prevE+1e-9 {
				return false
			}
			prevE = e
			if adc := pl.ADC(); adc < 0 || adc > 1023 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMaxForceAndRetardationAccounting(t *testing.T) {
	pl := defaultPlant()
	pl.SetValveDuty(255)
	for !pl.Stopped() {
		pl.StepMs(1)
		if pl.TimeS() > 60 {
			t.Fatal("did not stop")
		}
	}
	if pl.MaxForceN() <= 0 {
		t.Error("MaxForceN not recorded")
	}
	if pl.MaxRetardationG() <= 0 {
		t.Error("MaxRetardationG not recorded")
	}
	// Peak force over mass must be consistent with peak retardation.
	impliedG := pl.MaxForceN() / pl.Params().MassKg / StandardGravity
	if math.Abs(impliedG-pl.MaxRetardationG()) > 0.05 {
		t.Errorf("force/retardation inconsistent: %.3f g vs %.3f g", impliedG, pl.MaxRetardationG())
	}
}

// Pressure returns the actual brake pressure (0..PMax).
func (pl *Plant) Pressure() float64 { return pl.pressure }

// KineticEnergyJ returns the aircraft's remaining kinetic energy.
func (pl *Plant) KineticEnergyJ() float64 {
	return 0.5 * pl.p.MassKg * pl.v * pl.v
}
