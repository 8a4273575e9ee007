package sut

import (
	"strings"
	"testing"

	"repro/internal/model"
)

func TestLookupAndNames(t *testing.T) {
	for _, name := range []string{"arrestment", "tank", "multiout"} {
		tgt, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if tgt.Name() != name {
			t.Errorf("Lookup(%q).Name() = %q", name, tgt.Name())
		}
	}
	def, err := Lookup("")
	if err != nil {
		t.Fatal(err)
	}
	if def.Name() != DefaultTarget {
		t.Errorf("empty lookup resolved %q, want %q", def.Name(), DefaultTarget)
	}
	_, err = Lookup("nope")
	if err == nil {
		t.Fatal("unknown target accepted")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("lookup error %q does not list registered target %q", err, name)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	tgt, _ := Lookup("tank")
	if err := Register(tgt); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestEnsureModelJSONIdempotent(t *testing.T) {
	a, err := EnsureModelJSON(multioutJSON)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EnsureModelJSON(multioutJSON)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("EnsureModelJSON re-registered an existing target")
	}
	if _, err := RegisterModelJSON(multioutJSON); err == nil {
		t.Error("RegisterModelJSON accepted a duplicate")
	}
	if _, err := EnsureModelJSON([]byte("{")); err == nil {
		t.Error("garbage JSON accepted")
	}
}

// TestTargetContracts checks seam invariants every library entry must
// hold: resolvable probe, positive horizons, assertion sets resolving
// against the spec list, and an injection window inside the horizon.
func TestTargetContracts(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			tgt, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			d := tgt.Defaults()
			if d.MaxRunMs <= 0 || d.PeriodicMs <= 0 {
				t.Errorf("defaults %+v not positive", d)
			}
			if tgt.ControlPeriodMs() <= 0 {
				t.Error("non-positive control period")
			}
			if len(tgt.DefaultCases()) == 0 {
				t.Error("no default cases")
			}
			for _, set := range [][]string{tgt.EHSet(), tgt.PASet(), tgt.ExtendedSet()} {
				if _, err := SpecsFor(tgt, set); err != nil {
					t.Errorf("set does not resolve: %v", err)
				}
			}
			p := tgt.Probe()
			sys := tgt.System()
			if _, ok := sys.Signal(p.Input); !ok {
				t.Errorf("probe input %s not in system", p.Input)
			}
			if len(sys.ConsumersOf(p.Input)) != 1 {
				t.Errorf("probe input %s must have exactly one consumer", p.Input)
			}
			if p.Guard.Name == "" {
				t.Error("probe guard is empty")
			}
			if w := tgt.InjectWindow(d.MaxRunMs); w <= 0 || w > d.MaxRunMs {
				t.Errorf("InjectWindow(%d) = %d outside (0, horizon]", d.MaxRunMs, w)
			}
			if tgt.CaseSeed(1, tgt.DefaultCases()[0]) == tgt.CaseSeed(2, tgt.DefaultCases()[0]) {
				t.Error("CaseSeed ignores the campaign seed")
			}
		})
	}
}

// Every target's System is the one shared description, and its rigs
// run on it.
func TestSystemIsShared(t *testing.T) {
	for _, name := range Names() {
		tgt, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if tgt.System() != tgt.System() {
			t.Errorf("%s: System() builds a new description per call", name)
		}
		rig, err := tgt.Acquire(tgt.DefaultCases()[0], 1, Variant{})
		if err != nil {
			t.Fatal(err)
		}
		if rig.System() != tgt.System() {
			t.Errorf("%s: a rig runs on its own copy of the system", name)
		}
		tgt.Release(rig)
	}
}

// TestFaultFreeSilence acquires each library target, runs the full
// assertion and wrapper banks over a fault-free horizon and requires
// zero detections and zero recoveries — the no-false-positives
// precondition every coverage number rests on.
func TestFaultFreeSilence(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			tgt, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			tc := tgt.DefaultCases()[0]
			rig, err := tgt.Acquire(tc, tgt.CaseSeed(11, tc), Variant{})
			if err != nil {
				t.Fatal(err)
			}
			defer tgt.Release(rig)
			var all []string
			for _, s := range tgt.AllEASpecs() {
				all = append(all, s.Name)
			}
			bank, err := NewBank(tgt, rig, all)
			if err != nil {
				t.Fatal(err)
			}
			rig.Sched().OnPostSlot(bank.Hook)
			wrap, err := NewERMBank(rig, tgt.ERMSpecs())
			if err != nil {
				t.Fatal(err)
			}
			horizon := tgt.Defaults().MaxRunMs
			if horizon > 15_000 {
				horizon = 15_000
			}
			done, err := rig.RunUntilDone(horizon)
			if err != nil {
				t.Fatal(err)
			}
			if rig.Failed(done) {
				t.Error("fault-free run classified failed")
			}
			if bank.Detected() {
				t.Errorf("false positives on fault-free run: %v", bank.DetectedBy())
			}
			if wrap.Recovered() {
				t.Errorf("wrappers fired on fault-free run: %v", wrap.RecoveredBy())
			}
		})
	}
}

// TestGenericRigDeterminism pins the interpreter-backed target's
// reproducibility: same case and seed, same trace; different seed,
// different stimulus.
func TestGenericRigDeterminism(t *testing.T) {
	tgt, err := Lookup("multiout")
	if err != nil {
		t.Fatal(err)
	}
	tc := tgt.DefaultCases()[1]
	final := func(seed int64) []model.Word {
		rig, err := tgt.Acquire(tc, seed, Variant{})
		if err != nil {
			t.Fatal(err)
		}
		defer tgt.Release(rig)
		if err := rig.RunFor(2_000); err != nil {
			t.Fatal(err)
		}
		var out []model.Word
		for _, sig := range tgt.AllSignals() {
			out = append(out, rig.Bus().Peek(sig))
		}
		return out
	}
	a, b := final(42), final(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at signal %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := final(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical bus state; stimulus ignores the seed")
	}
}

// TestHashSeedSeparatesCampaigns pins the shared RunSeed derivation:
// distinct campaign names and indices map to distinct streams.
func TestHashSeedSeparatesCampaigns(t *testing.T) {
	if HashSeed(1, "perm", 0) == HashSeed(1, "cov", 0) {
		t.Error("campaign names collide")
	}
	if HashSeed(1, "perm", 0) == HashSeed(1, "perm", 1) {
		t.Error("plan indices collide")
	}
	if HashSeed(1, "perm", 7) != HashSeed(1, "perm", 7) {
		t.Error("derivation not deterministic")
	}
}
