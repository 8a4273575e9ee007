package experiment

import (
	"math/rand"

	"repro/internal/ea"
	"repro/internal/erm"
	"repro/internal/fi"
	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sut"
	"repro/internal/trace"
)

// Every measurement of the paper is one experiment with different
// parts: acquire a rig, deploy the detection (EA) and recovery (ERM)
// mechanisms, inject one fault, run until a stop rule ends the run,
// and classify. runInjection is that experiment, and the only code in
// this package that builds a run; campaigns choose its four parts and
// fold its outcome (docs/architecture.md, "Injection runs").

// rigSpec names the rig a run acquires: the target and test case, the
// campaign seed the case's rig seed derives from, the build variant,
// and the case's golden run (nil only for the golden run itself).
type rigSpec struct {
	t       sut.Target
	seed    int64
	tc      sut.Case
	variant sut.Variant
	g       *golden
}

// caseRig is the plain rig of a golden run's case.
func caseRig(t sut.Target, seed int64, g *golden) rigSpec {
	return rigSpec{t: t, seed: seed, tc: g.tc, g: g}
}

// eaBank is one deployed bank of executable assertions: checked once
// per control period (sampled, the monitoring-task deployment) or at
// every write of a guarded signal (inline, the paper's deployment).
type eaBank struct {
	specs  []ea.Spec
	inline bool
}

// ehBank is the sampled bank of the target's full (EH) assertion set,
// the deployment of every coverage campaign.
func ehBank(t sut.Target) ([]eaBank, error) {
	specs, err := sut.SpecsFor(t, t.EHSet())
	return []eaBank{{specs: specs}}, err
}

// mechanisms lists what a run deploys before its fault, in the order
// it is installed: EA banks, ERM wrappers, then the observers — a
// recorder of every signal, golden checkpoints, a def/use liveness
// profile against the periodic injection clock, and a permeability
// watch.
type mechanisms struct {
	banks       []eaBank
	wrappers    []erm.Spec
	record      bool
	checkpoints bool
	livenessMs  int64 // liveness profile period; 0 deploys none
	watch       *permWatch
}

// injector is what the kernel needs of every fi injector: Attach
// installs exactly the hooks the injector needs on the run's
// scheduler, bus and memory map, and Applied reports how many
// corruptions landed and when the first one did (-1 if none).
type injector interface {
	Attach(s *sched.Scheduler, bus *model.Bus, mem *memmap.Map)
	Applied() (n int, firstMs int64)
}

// fault builds a run's injector over the acquired rig; a nil fault
// injects nothing.
type fault func(rig sut.Rig) (injector, error)

// injected is the fault of an injector built before the rig.
func injected(f injector) fault {
	return func(sut.Rig) (injector, error) { return f, nil }
}

// periodic is the internal error model's fault: flips of one memory
// target every periodMs from periodMs on.
func periodic(tgt fi.MemTarget, periodMs int64) fault {
	return func(rig sut.Rig) (injector, error) {
		return fi.NewPeriodicInjector(tgt, periodMs, periodMs, rig.Bus(), rig.Mem())
	}
}

// drawFlip draws a transient read flip at port: a uniformly random bit
// of sig, applied at the first read at or after a uniformly random time
// in [0, windowMs).
func drawFlip(rng *rand.Rand, port model.PortRef, sig *model.Signal, windowMs int64) *fi.ReadFlip {
	return &fi.ReadFlip{Port: port, Bit: uint8(rng.Intn(int(sig.Type.Width))), FromMs: rng.Int63n(windowMs)}
}

// stopKind selects how a run ends.
type stopKind int

const (
	stopAtHorizon      stopKind = iota // run a fixed duration
	stopWhenDone                       // run until the target completes, within a bound
	stopGoldenSchedule                 // run until done within a bound, then a tail
	stopWhenDecided                    // resume from a golden checkpoint, run until the watch decides
)

// stopWhen is a run's stop rule.
type stopWhen struct {
	kind   stopKind
	ms     int64 // horizon or bound
	tailMs int64 // golden-schedule tail after completion
	fromMs int64 // the earliest time the fault can apply
}

// atHorizon runs exactly ms of scheduler time.
func atHorizon(ms int64) stopWhen { return stopWhen{kind: stopAtHorizon, ms: ms} }

// whenDone runs until the target's completion criterion, at most
// boundMs, and classifies the run against its specification.
func whenDone(boundMs int64) stopWhen { return stopWhen{kind: stopWhenDone, ms: boundMs} }

// goldenSchedule is the golden run's schedule: run to completion within
// maxMs, then tailMs more. A run that does not complete stops there.
func goldenSchedule(maxMs, tailMs int64) stopWhen {
	return stopWhen{kind: stopGoldenSchedule, ms: maxMs, tailMs: tailMs}
}

// whenDecided simulates only the slots that can change a permeability
// run's outcome: everything before the latest golden checkpoint at or
// before fromMs is the golden run, so the run resumes there, and it
// stops once the deployed watch (mechanisms.watch, required) has
// decided, or at the golden horizon.
func whenDecided(fromMs int64) stopWhen { return stopWhen{kind: stopWhenDecided, fromMs: fromMs} }

// runOutcome is what one run measured.
type runOutcome struct {
	// Active: the fault applied before the golden completion point
	// (the paper's "injected before the arrestment was completed").
	Active bool
	// FirstMs is when the fault first applied (-1 if never).
	FirstMs int64
	// DetectedAt holds, per deployed EA bank, each fired assertion's
	// first detection time.
	DetectedAt []map[string]int64
	// Failed is the whenDone verdict against the target's
	// specification.
	Failed bool
	// Recoveries counts ERM wrapper substitutions.
	Recoveries int
	// DoneMs is when the target completed (-1 if it did not, or the
	// stop rule does not ask).
	DoneMs int64
	// Stop says why a whenDecided run ended before its horizon.
	Stop stopReason
	// EndMs is the scheduler time the run stopped at.
	EndMs int64
	// Trace, Checkpoints and Liveness are the observers' records.
	Trace       *trace.Trace
	Checkpoints []*sut.Checkpoint
	Liveness    *memmap.Liveness
}

// runInjection executes one run: acquire the rig, deploy the
// mechanisms, then attach the fault (hook installation order is part
// of the output: mechanisms always come first), run to the stop rule
// and collect the outcome. A faulty run needs its case's golden run.
func runInjection(r rigSpec, m mechanisms, newFault fault, stop stopWhen) (runOutcome, error) {
	out := runOutcome{FirstMs: -1, DoneMs: -1}
	rig, err := r.t.Acquire(r.tc, r.t.CaseSeed(r.seed, r.tc), r.variant)
	if err != nil {
		return out, err
	}
	defer r.t.Release(rig)
	s, bus := rig.Sched(), rig.Bus()

	asserts := make([][]*ea.Assertion, 0, len(m.banks))
	for _, b := range m.banks {
		if b.inline {
			wb, err := ea.NewWriteBank(bus, b.specs)
			if err != nil {
				return out, err
			}
			s.OnPreSlot(wb.Hook)
			bus.OnWrite(wb.WriteHook())
			asserts = append(asserts, wb.Assertions())
			continue
		}
		sb, err := ea.NewBank(bus, r.t.ControlPeriodMs(), b.specs)
		if err != nil {
			return out, err
		}
		s.OnPostSlot(sb.Hook)
		asserts = append(asserts, sb.Assertions())
	}
	var wrappers *erm.Bank
	if len(m.wrappers) > 0 {
		if wrappers, err = sut.NewERMBank(rig, m.wrappers); err != nil {
			return out, err
		}
	}
	var rec *trace.Recorder
	if m.record {
		rec = trace.NewRecorder(bus, r.t.AllSignals(), 1, stop.ms+stop.tailMs)
		s.OnPostSlot(rec.Hook)
	}
	var ck *checkpointer
	if m.checkpoints {
		ck = &checkpointer{rig: rig}
		s.OnPostSlot(ck.hook)
	}
	if m.livenessMs > 0 {
		l, err := memmap.NewLiveness(rig.Mem(), m.livenessMs, m.livenessMs)
		if err != nil {
			return out, err
		}
		s.OnPreSlot(l.Hook)
		rig.Mem().OnRead(l.ReadHook())
		rig.Mem().OnWrite(l.WriteHook())
		out.Liveness = l
	}
	if m.watch != nil {
		m.watch.bind(rig)
		s.OnPostSlot(m.watch.hook)
	}
	var f injector
	if newFault != nil {
		if f, err = newFault(rig); err != nil {
			return out, err
		}
		f.Attach(s, bus, rig.Mem())
	}

	switch stop.kind {
	case stopAtHorizon:
		err = rig.RunFor(stop.ms)
	case stopWhenDone:
		var done bool
		if done, err = rig.RunUntilDone(stop.ms); err == nil {
			out.Failed = rig.Failed(done)
			if done {
				out.DoneMs = s.NowMs()
			}
		}
	case stopGoldenSchedule:
		var done bool
		if done, err = rig.RunUntilDone(stop.ms); err == nil && done {
			out.DoneMs = s.NowMs()
			err = rig.RunFor(stop.tailMs)
		}
	case stopWhenDecided:
		var start int64
		if cp := r.g.checkpointAt(stop.fromMs); cp != nil {
			rig.Restore(cp)
			start = cp.AtMs()
		}
		if _, err = s.RunUntil(m.watch.decided, r.g.horizonMs-start); err == nil {
			out.Stop = m.watch.stop
			countSlots(start, s.NowMs(), r.g.horizonMs, out.Stop)
		}
	}
	if err != nil {
		return runOutcome{}, err
	}

	out.EndMs = s.NowMs()
	if f != nil {
		var n int
		n, out.FirstMs = f.Applied()
		out.Active = n > 0 && out.FirstMs < r.g.arrestMs
	}
	for _, as := range asserts {
		out.DetectedAt = append(out.DetectedAt, detectionTimes(as))
	}
	if wrappers != nil {
		out.Recoveries = wrappers.TotalRecoveries()
	}
	if rec != nil {
		out.Trace = rec.Finish()
	}
	if ck != nil {
		out.Checkpoints = ck.cps
	}
	return out, nil
}

// checkpointer saves the rig every goldenCheckpointMs. Installed after
// the rig's own post-slot hooks, each checkpoint stands for the start
// of the next slot (slots are 1 ms on every target, as the 1 ms trace
// assumes).
type checkpointer struct {
	rig sut.Rig
	cps []*sut.Checkpoint
}

func (c *checkpointer) hook(nowMs int64) {
	if (nowMs+1)%goldenCheckpointMs == 0 {
		c.cps = append(c.cps, c.rig.Save())
	}
}

// countSlots accounts a whenDecided run to telemetry: its slots skipped
// by the fast-forward, simulated, and skipped after the run was decided
// or converged, and how it ended (decided, converged, or at the
// horizon, with the slots a horizon run simulated).
func countSlots(start, end, horizonMs int64, stop stopReason) {
	tel := obs.Active()
	if tel == nil {
		return
	}
	tel.SlotsFastForwarded.Add(start)
	tel.SlotsSimulated.Add(end - start)
	switch stop {
	case stopDecided:
		tel.SlotsDecided.Add(horizonMs - end)
		tel.RunsDecided.Inc()
	case stopConverged:
		tel.SlotsConverged.Add(horizonMs - end)
		tel.RunsConverged.Inc()
	default:
		tel.RunsHorizon.Inc()
		tel.SlotsHorizon.Add(end - start)
	}
}

// detectionTimes extracts each fired assertion's first detection time.
func detectionTimes(asserts []*ea.Assertion) map[string]int64 {
	out := make(map[string]int64)
	for _, a := range asserts {
		if at := a.FirstDetectionMs(); at >= 0 {
			out[a.Spec().Name] = at
		}
	}
	return out
}
