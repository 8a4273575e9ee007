package experiment

import (
	"context"
	"fmt"

	"repro/internal/fi"
	"repro/internal/sut"
	"repro/internal/trace"
)

// LivenessAuditResult summarizes a masked-class soundness audit of one
// target: how many memory targets the def/use profile classified masked
// and how many of those classifications were proved by actually running
// the injection the profile claims is unobservable.
type LivenessAuditResult struct {
	Target string
	Cases  int
	// RAMTargets and StackTargets count the enumerated (cell, bit)
	// memory targets per region; RAMMasked / StackMasked how many of
	// them the profiles classify masked, summed over cases.
	RAMTargets, StackTargets int
	RAMMasked, StackMasked   int
	// Proofs counts the injection runs executed as witnesses.
	Proofs int
	// Violations lists every masked classification whose witness run
	// diverged from the golden trace — each one a pruning unsoundness.
	Violations []string
}

// AuditLiveness proves the adaptive layer's def/use pruning sound on
// the options' target: for up to perClass masked RAM targets and
// perClass masked stack targets per test case, it executes the very
// injection the liveness profile prunes and requires the run to be
// indistinguishable from the golden run — same completion, same arrest
// time, and no first difference on any recorded signal. A violation
// means pruning would have silently dropped an observable error class.
func AuditLiveness(ctx context.Context, opts Options, perClass int) (*LivenessAuditResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if perClass < 1 {
		return nil, fmt.Errorf("experiment: perClass %d must be >= 1", perClass)
	}
	t, err := resolvedTarget(opts)
	if err != nil {
		return nil, err
	}
	golds, err := goldens(ctx, opts, t)
	if err != nil {
		return nil, err
	}

	all, stack, err := memTargets(opts, t)
	if err != nil {
		return nil, err
	}
	var ram []fi.MemTarget
	for _, tgt := range all {
		if tgt.Kind == fi.TargetRAMCell {
			ram = append(ram, tgt)
		}
	}

	res := &LivenessAuditResult{Target: t.Name(), Cases: len(opts.Cases), RAMTargets: len(ram), StackTargets: len(stack)}
	for ci, g := range golds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		prof, err := livenessProfile(opts, t, g, sut.Variant{}, nil)
		if err != nil {
			return nil, err
		}
		var maskedRAM, maskedStack []fi.MemTarget
		for _, tgt := range ram {
			if maskedTarget(prof, tgt) {
				maskedRAM = append(maskedRAM, tgt)
			}
		}
		for _, tgt := range stack {
			if maskedTarget(prof, tgt) {
				maskedStack = append(maskedStack, tgt)
			}
		}
		res.RAMMasked += len(maskedRAM)
		res.StackMasked += len(maskedStack)

		for _, class := range []struct {
			region string
			masked []fi.MemTarget
		}{{"ram", maskedRAM}, {"stack", maskedStack}} {
			region, masked := class.region, class.masked
			sample := masked
			if len(sample) > perClass {
				sample = fi.SampleTargets(masked, perClass, t.RunSeed(opts.Seed, "audit-"+region, ci))
			}
			for _, tgt := range sample {
				// The pruned injection — the same periodic run the
				// internal campaign would have executed — on the golden
				// run's schedule, recording every signal.
				out, err := runInjection(caseRig(t, opts.Seed, g), mechanisms{record: true},
					periodic(tgt, opts.PeriodicMs), goldenSchedule(opts.MaxRunMs, opts.TailMs))
				if err != nil {
					return nil, err
				}
				res.Proofs++
				for _, v := range divergences(opts, g, out) {
					res.Violations = append(res.Violations,
						fmt.Sprintf("case %d %s cell %v bit %d: %s", g.tc.ID, region, tgt.Cell, tgt.Bit, v))
				}
			}
		}
	}
	return res, nil
}

// divergences lists each way a witness run observably diverged from
// the golden run (none, for a sound masked classification).
func divergences(opts Options, g *golden, out runOutcome) []string {
	if out.DoneMs < 0 {
		return []string{fmt.Sprintf("run did not complete within %d ms", opts.MaxRunMs)}
	}
	var bad []string
	if out.DoneMs != g.arrestMs {
		bad = append(bad, fmt.Sprintf("completed at %d ms, golden at %d ms", out.DoneMs, g.arrestMs))
	}
	for sig, idx := range trace.Deviations(g.trace, out.Trace) {
		if idx != trace.NoDifference {
			bad = append(bad, fmt.Sprintf("signal %s first differs at slot %d", sig, idx))
		}
	}
	return bad
}
