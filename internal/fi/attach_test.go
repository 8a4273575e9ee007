package fi_test

import (
	"slices"
	"testing"

	"repro/internal/fi"
	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sut"
	"repro/internal/trace"
)

// fault is what a run needs of every injector.
type fault interface {
	Attach(s *sched.Scheduler, bus *model.Bus, mem *memmap.Map)
	Applied() (n int, firstMs int64)
}

// TestAttachMatchesHandWiring runs each of the six injectors twice on
// identical arrestment rigs: once installed by Attach, once wired by
// hand onto the hooks it needs. Both runs must corrupt the system
// identically — the same trace on every signal and the same Applied
// accounting — and the corruption must actually land.
func TestAttachMatchesHandWiring(t *testing.T) {
	tgt, err := sut.Lookup(sut.DefaultTarget)
	if err != nil {
		t.Fatal(err)
	}
	tc := tgt.DefaultCases()[0]
	const horizonMs = 3_000
	probe := tgt.System().ConsumersOf(tgt.Probe().Input)[0]
	ramCell := func(r sut.Rig) fi.MemTarget {
		return fi.EnumerateRAMTargets(r.System(), r.Mem())[1]
	}
	stackCell := func(r sut.Rig) fi.MemTarget {
		return fi.EnumerateStackTargets(r.Mem())[0]
	}

	tests := []struct {
		name  string
		build func(r sut.Rig) (fault, error)
		wire  func(r sut.Rig, f fault)
	}{
		{
			name: "read flip",
			build: func(sut.Rig) (fault, error) {
				return fi.NewInjector(&fi.ReadFlip{Port: probe, Bit: 3, FromMs: 1_000}), nil
			},
			wire: func(r sut.Rig, f fault) {
				in := f.(*fi.Injector)
				r.Sched().OnPreSlot(in.Hook)
				r.Bus().OnRead(in.ReadHook())
			},
		},
		{
			name: "periodic stack",
			build: func(r sut.Rig) (fault, error) {
				return fi.NewPeriodicInjector(stackCell(r), 20, 20, r.Bus(), r.Mem())
			},
			wire: func(r sut.Rig, f fault) {
				pi := f.(*fi.PeriodicInjector)
				r.Sched().OnPreSlot(pi.Hook)
				r.Mem().OnRead(pi.MemHook())
			},
		},
		{
			name: "corruption",
			build: func(r sut.Rig) (fault, error) {
				return fi.NewCorruptionInjector(fi.Corruption{
					Kind: fi.CorruptIntermittent, Port: probe, Bit: 2, PeriodReads: 7, FromMs: 500,
				}, r.Bus())
			},
			wire: func(r sut.Rig, f fault) {
				ci := f.(*fi.CorruptionInjector)
				r.Sched().OnPreSlot(ci.Hook)
				r.Bus().OnRead(ci.ReadHook())
			},
		},
		{
			name: "stuck-at",
			build: func(r sut.Rig) (fault, error) {
				return fi.NewStuckAtInjector(fi.StuckAt{Target: stackCell(r), Value: 1, FromMs: 700}, r.Bus(), r.Mem())
			},
			wire: func(r sut.Rig, f fault) {
				si := f.(*fi.StuckAtInjector)
				r.Sched().OnPreSlot(si.Hook)
				r.Mem().OnRead(si.MemHook())
			},
		},
		{
			name: "burst flip",
			build: func(r sut.Rig) (fault, error) {
				return fi.NewBurstFlipInjector(fi.BurstFlip{Target: ramCell(r), Width: 1, FromMs: 900}, r.Bus(), r.Mem())
			},
			wire: func(r sut.Rig, f fault) {
				bi := f.(*fi.BurstFlipInjector)
				r.Sched().OnPreSlot(bi.Hook)
				r.Mem().OnRead(bi.MemHook())
			},
		},
		{
			name: "slot fault",
			build: func(r sut.Rig) (fault, error) {
				return fi.NewSlotFaultInjector(fi.SlotFault{
					Module: probe.Module, Mode: fi.SlotOmission, FromMs: 1_200, UntilMs: 1_400,
				}, r.System())
			},
			wire: func(r sut.Rig, f fault) {
				r.Sched().OnStep(f.(*fi.SlotFaultInjector).Filter())
			},
		},
	}

	type result struct {
		trace   *trace.Trace
		n       int
		firstMs int64
	}
	run := func(t *testing.T, build func(sut.Rig) (fault, error), install func(sut.Rig, fault)) result {
		t.Helper()
		r, err := tgt.Acquire(tc, tgt.CaseSeed(1, tc), sut.Variant{})
		if err != nil {
			t.Fatal(err)
		}
		defer tgt.Release(r)
		rec := trace.NewRecorder(r.Bus(), tgt.AllSignals(), 1, horizonMs)
		r.Sched().OnPostSlot(rec.Hook)
		f, err := build(r)
		if err != nil {
			t.Fatal(err)
		}
		install(r, f)
		if err := r.RunFor(horizonMs); err != nil {
			t.Fatal(err)
		}
		n, first := f.Applied()
		return result{trace: rec.Trace(), n: n, firstMs: first}
	}
	attach := func(r sut.Rig, f fault) { f.Attach(r.Sched(), r.Bus(), r.Mem()) }

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			byHand := run(t, tt.build, tt.wire)
			attached := run(t, tt.build, attach)
			if byHand.n == 0 {
				t.Fatal("the fault never applied: the comparison proves nothing")
			}
			if attached.n != byHand.n || attached.firstMs != byHand.firstMs {
				t.Errorf("Applied() = %d,%d attached, %d,%d wired by hand",
					attached.n, attached.firstMs, byHand.n, byHand.firstMs)
			}
			for _, s := range tgt.AllSignals() {
				if !slices.Equal(attached.trace.Samples(s), byHand.trace.Samples(s)) {
					t.Fatalf("signal %s: attached run diverges from the hand-wired run", s)
				}
			}
		})
	}
}
