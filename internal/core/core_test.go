package core

import (
	"math"
	"testing"

	"repro/internal/model"
)

// chainSystem builds:
//
//	in -> [A] -> m1 -> [B] -> out
//	          -> m2 ----^
//
// A has outputs m1, m2; B has inputs m1, m2 and output out.
func chainSystem(t *testing.T) *model.System {
	t.Helper()
	sys, err := model.NewBuilder("chain").
		AddSignal("in", model.Uint(16), model.AsSystemInput()).
		AddSignal("m1", model.Uint(16)).
		AddSignal("m2", model.Uint(16)).
		AddSignal("out", model.Uint(16), model.AsSystemOutput(1)).
		AddModule("A", model.In("in"), model.Out("m1", "m2")).
		AddModule("B", model.In("m1", "m2"), model.Out("out")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// loopSystem builds a system with a self-loop (s -> M -> s) alongside a
// path to the output, mirroring the target's i signal.
func loopSystem(t *testing.T) *model.System {
	t.Helper()
	sys, err := model.NewBuilder("loop").
		AddSignal("in", model.Uint(16), model.AsSystemInput()).
		AddSignal("s", model.Uint(16)).
		AddSignal("out", model.Uint(16), model.AsSystemOutput(1)).
		AddModule("M", model.In("in", "s"), model.Out("s", "out")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPermeabilitySetGet(t *testing.T) {
	sys := chainSystem(t)
	p := NewPermeability(sys)

	if err := p.Set("A", 1, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	got, err := p.Value("A", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.5 {
		t.Errorf("Value = %v, want 0.5", got)
	}
	// Unset pairs default to zero.
	if got, _ := p.Value("A", 1, 2); got != 0 {
		t.Errorf("unset Value = %v, want 0", got)
	}
}

func TestPermeabilitySetErrors(t *testing.T) {
	sys := chainSystem(t)
	p := NewPermeability(sys)
	if err := p.Set("Z", 1, 1, 0.5); err == nil {
		t.Error("unknown module accepted")
	}
	if err := p.Set("A", 5, 1, 0.5); err == nil {
		t.Error("bad input index accepted")
	}
	if err := p.Set("A", 1, 5, 0.5); err == nil {
		t.Error("bad output index accepted")
	}
	if err := p.Set("A", 1, 1, 1.5); err == nil {
		t.Error("permeability > 1 accepted")
	}
	if err := p.Set("A", 1, 1, -0.1); err == nil {
		t.Error("negative permeability accepted")
	}
}

// TestSetEdgeRejectsForeignEdges: an edge whose module, ports or
// signals do not match the system is refused, not stored, and reads
// as zero.
func TestSetEdgeRejectsForeignEdges(t *testing.T) {
	sys := chainSystem(t)
	p := NewPermeability(sys)
	good := sys.Edges()[2] // B.in1(m1) -> out1(out)
	if err := p.SetEdge(good, 0.25); err != nil {
		t.Fatal(err)
	}
	for _, e := range []model.Edge{
		{Module: "B", In: 1, Out: 1, From: "m2", To: "out"}, // From bound to in2
		{Module: "B", In: 1, Out: 1, From: "m1", To: "m1"},  // wrong To
		{Module: "A", In: 1, Out: 1, From: "m1", To: "out"}, // B's signals on A's ports
		{Module: "C", In: 1, Out: 1, From: "m1", To: "out"}, // unknown module
		{Module: "B", In: 3, Out: 1, From: "m1", To: "out"}, // no such port
	} {
		if err := p.SetEdge(e, 0.5); err == nil {
			t.Errorf("SetEdge(%+v) accepted a foreign edge", e)
		}
		if got := p.Get(e); got != 0 {
			t.Errorf("Get(%+v) = %v, want 0", e, got)
		}
	}
	if got := p.Get(good); got != 0.25 {
		t.Errorf("a refused SetEdge changed a real edge: %v, want 0.25", got)
	}
}

func TestModulePermeabilityMeasures(t *testing.T) {
	sys := chainSystem(t)
	p := NewPermeability(sys)
	p.MustSet("A", 1, 1, 0.8)
	p.MustSet("A", 1, 2, 0.4)

	rel, err := p.RelativePermeability("A")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(rel, 0.6) {
		t.Errorf("RelativePermeability = %v, want 0.6", rel)
	}
	nw, err := p.NonWeightedPermeability("A")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(nw, 1.2) {
		t.Errorf("NonWeightedPermeability = %v, want 1.2", nw)
	}
	if _, err := p.RelativePermeability("Z"); err == nil {
		t.Error("unknown module accepted")
	}
}

func TestSignalExposureIsSumOfIncomingPermeabilities(t *testing.T) {
	sys := chainSystem(t)
	p := NewPermeability(sys)
	p.MustSet("B", 1, 1, 0.885) // m1 -> out
	p.MustSet("B", 2, 1, 0.896) // m2 -> out

	x, err := p.SignalExposure("out")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(x, 1.781) { // the paper's OutValue arithmetic
		t.Errorf("SignalExposure(out) = %v, want 1.781", x)
	}
	// System input: no producing pairs.
	if x, _ := p.SignalExposure("in"); x != 0 {
		t.Errorf("SignalExposure(in) = %v, want 0", x)
	}
	if _, err := p.SignalExposure("ghost"); err == nil {
		t.Error("unknown signal accepted")
	}
}

func TestModuleExposure(t *testing.T) {
	sys := chainSystem(t)
	p := NewPermeability(sys)
	p.MustSet("A", 1, 1, 0.5) // in -> m1
	p.MustSet("A", 1, 2, 0.3) // in -> m2

	// B's inputs are m1 (exposure .5) and m2 (exposure .3).
	x, err := p.ModuleExposure("B")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(x, 0.8) {
		t.Errorf("ModuleExposure(B) = %v, want 0.8", x)
	}
	rx, err := p.RelativeModuleExposure("B")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(rx, 0.4) {
		t.Errorf("RelativeModuleExposure(B) = %v, want 0.4", rx)
	}
}

func TestImpactSimpleChain(t *testing.T) {
	sys := chainSystem(t)
	p := NewPermeability(sys)
	p.MustSet("A", 1, 1, 0.5) // in -> m1
	p.MustSet("A", 1, 2, 0.2) // in -> m2
	p.MustSet("B", 1, 1, 0.8) // m1 -> out
	p.MustSet("B", 2, 1, 0.5) // m2 -> out

	// Two paths: in->m1->out (0.4) and in->m2->out (0.1).
	imp, err := Impact(p, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - (1-0.4)*(1-0.1)
	if !approx(imp, want) {
		t.Errorf("Impact = %v, want %v", imp, want)
	}

	// Single path from an intermediate.
	imp, err = Impact(p, "m1", "out")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(imp, 0.8) {
		t.Errorf("Impact(m1) = %v, want 0.8", imp)
	}
}

func TestImpactSelfIsOneAndNoPathIsZero(t *testing.T) {
	sys := chainSystem(t)
	p := NewPermeability(sys)
	imp, err := Impact(p, "out", "out")
	if err != nil {
		t.Fatal(err)
	}
	if imp != 1 {
		t.Errorf("Impact(out, out) = %v, want 1", imp)
	}
	// No permeabilities set: all paths weigh zero.
	imp, err = Impact(p, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	if imp != 0 {
		t.Errorf("Impact with zero matrix = %v, want 0", imp)
	}
	if _, err := Impact(p, "ghost", "out"); err == nil {
		t.Error("unknown source accepted")
	}
	if _, err := Impact(p, "in", "ghost"); err == nil {
		t.Error("unknown destination accepted")
	}
}

func TestImpactPrunesSelfLoop(t *testing.T) {
	sys := loopSystem(t)
	p := NewPermeability(sys)
	p.MustSet("M", 2, 1, 1.0) // s -> s: permeability 1 self-loop
	p.MustSet("M", 2, 2, 0.3) // s -> out
	p.MustSet("M", 1, 2, 0.6) // in -> out
	p.MustSet("M", 1, 1, 0.4) // in -> s

	// The s->s loop must not let the path s->s->out double-count: the
	// only admissible path from s to out is the direct edge.
	imp, err := Impact(p, "s", "out")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(imp, 0.3) {
		t.Errorf("Impact(s, out) = %v, want 0.3 (self-loop pruned)", imp)
	}

	// From in: paths in->out (0.6) and in->s->out (0.4*0.3 = 0.12).
	imp, err = Impact(p, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - (1-0.6)*(1-0.12)
	if !approx(imp, want) {
		t.Errorf("Impact(in, out) = %v, want %v", imp, want)
	}
}

func TestCriticalitySingleOutputScales(t *testing.T) {
	sys := chainSystem(t)
	p := NewPermeability(sys)
	p.MustSet("A", 1, 1, 0.5)
	p.MustSet("B", 1, 1, 0.8)

	// out has criticality 1.0: C_s == impact.
	imp, _ := Impact(p, "in", "out")
	c, err := Criticality(p, "in")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(c, imp) {
		t.Errorf("Criticality = %v, want impact %v", c, imp)
	}

	// Halving the output criticality halves C_s (single output).
	c2, err := CriticalityWith(p, "in", map[model.SignalID]float64{"out": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(c2, 0.5*imp) {
		t.Errorf("CriticalityWith(0.5) = %v, want %v", c2, 0.5*imp)
	}
}

func TestCriticalityWithValidation(t *testing.T) {
	sys := chainSystem(t)
	p := NewPermeability(sys)
	if _, err := CriticalityWith(p, "in", map[model.SignalID]float64{"out": 1.5}); err == nil {
		t.Error("criticality > 1 accepted")
	}
	if _, err := CriticalityWith(p, "in", map[model.SignalID]float64{"ghost": 0.5}); err == nil {
		t.Error("unknown output accepted")
	}
	if _, err := CriticalityWith(p, "in", map[model.SignalID]float64{"m1": 0.5}); err == nil {
		t.Error("non-output accepted as output")
	}
	if _, err := CriticalityWith(p, "ghost", nil); err == nil {
		t.Error("unknown signal accepted")
	}
}

func TestCriticalityMultiOutput(t *testing.T) {
	sys, err := model.NewBuilder("multi").
		AddSignal("in", model.Uint(16), model.AsSystemInput()).
		AddSignal("actuator", model.Uint(16), model.AsSystemOutput(1.0)).
		AddSignal("diag", model.Uint(16), model.AsSystemOutput(0.2)).
		AddModule("M", model.In("in"), model.Out("actuator", "diag")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	p := NewPermeability(sys)
	p.MustSet("M", 1, 1, 0.5) // in -> actuator
	p.MustSet("M", 1, 2, 0.9) // in -> diag

	// C = 1 - (1 - 1.0*0.5)(1 - 0.2*0.9)
	c, err := Criticality(p, "in")
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - (1-0.5)*(1-0.18)
	if !approx(c, want) {
		t.Errorf("Criticality = %v, want %v", c, want)
	}

	// Same impacts, different criticalities: "two signals with the same
	// impact may have different criticalities" — rescaling the diag
	// output must change C.
	c2, err := CriticalityWith(p, "in", map[model.SignalID]float64{"actuator": 1, "diag": 1})
	if err != nil {
		t.Fatal(err)
	}
	if c2 <= c {
		t.Errorf("raising output criticality did not raise C: %v <= %v", c2, c)
	}
}

func TestPermeabilityJSONRoundTrip(t *testing.T) {
	sys := chainSystem(t)
	p := NewPermeability(sys)
	p.MustSet("A", 1, 1, 0.8)
	p.MustSet("B", 2, 1, 0.25)

	data, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalPermeability(sys, data)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sys.Edges() {
		if got.Get(e) != p.Get(e) {
			t.Errorf("edge %v: %v != %v", e, got.Get(e), p.Get(e))
		}
	}
}

func TestUnmarshalPermeabilityValidation(t *testing.T) {
	sys := chainSystem(t)
	other := loopSystem(t)
	p := NewPermeability(sys)
	data, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalPermeability(other, data); err == nil {
		t.Error("matrix accepted against wrong system")
	}
	if _, err := UnmarshalPermeability(sys, []byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
	bad := []byte(`{"system":"chain","entries":[{"module":"A","in":9,"out":1,"value":0.5}]}`)
	if _, err := UnmarshalPermeability(sys, bad); err == nil {
		t.Error("bad port accepted")
	}
	badVal := []byte(`{"system":"chain","entries":[{"module":"A","in":1,"out":1,"value":7}]}`)
	if _, err := UnmarshalPermeability(sys, badVal); err == nil {
		t.Error("out-of-range value accepted")
	}
}

// Value returns P^mod_{in,out}.
func (p *Permeability) Value(mod model.ModuleID, in, out int) (float64, error) {
	e, err := p.edge(mod, in, out)
	if err != nil {
		return 0, err
	}
	return p.Get(e), nil
}
