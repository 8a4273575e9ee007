// Package campaign is the unified engine behind every fault-injection
// campaign: a campaign declares its work as Plan/Execute/Reduce, and a
// pluggable Executor schedules the independent runs. The decomposition
// is the architectural seam for scaling — the plan is deterministic and
// indexable, runs are pure functions of (run, index), and results are
// reduced in plan order, so the same campaign is byte-identical whether
// it executes serially, on a sharded worker pool, or (later) on a
// distributed work queue.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Campaign decomposes one experiment into independently schedulable
// runs. Plan builds the full run list deterministically (no randomness
// beyond what the campaign's seed fixes); Execute performs run i and
// must derive all its randomness from (run, index), never from
// scheduling; Reduce folds the results — in plan order — into the
// campaign's output. Execute must only touch index-owned state: the
// engine invokes it concurrently.
type Campaign[Run, Result, Out any] interface {
	// Name identifies the campaign in timing rows and diagnostics.
	Name() string
	// Plan returns every run of the campaign.
	Plan() ([]Run, error)
	// Execute performs one run.
	Execute(ctx context.Context, run Run, index int) (Result, error)
	// Reduce aggregates the results, which are indexed like the plan.
	Reduce(plan []Run, results []Result) (Out, error)
}

// Sharder is an optional Campaign refinement: ShardKey assigns run i a
// deterministic work-distribution key. Keys must be pure functions of
// the run's identity (seed, test case, physics, horizons — the same
// fields that key the golden cache), never of worker count, so a shard
// holds the same runs no matter where or how wide it executes. Runs
// sharing a key share a shard, which keeps per-case golden reuse local
// to one shard when shards are dispatched to separate processes.
type Sharder[Run any] interface {
	ShardKey(run Run, index int) uint64
}

// Describer is an optional Campaign refinement: Describe renders run i
// for diagnostics (the failing run's seed and test case), used to
// decorate errors and recovered panics.
type Describer[Run any] interface {
	Describe(run Run, index int) string
}

// Planned is an optional Campaign refinement for campaigns whose plan
// is a pruned stand-in for a larger exact grid: PlannedRuns reports the
// exact-grid size, and the engine records it in the campaign's timing
// row so BENCH reports show runs saved. Campaigns without it are taken
// at face value (planned = executed).
type Planned interface {
	PlannedRuns() int
}

// Execute runs a campaign end to end: plan, execute every run on the
// executor, reduce. A nil executor defaults to the serial reference,
// Sharded{Workers: 1, Shards: 1}. When col is non-nil the engine
// observes the campaign's run count and wall-clock time into it (the
// engine-level timing hook behind BENCH_campaigns reports). Errors and
// panics from individual runs abort the campaign and are decorated
// with the failing run's index and description.
func Execute[Run, Result, Out any](ctx context.Context, c Campaign[Run, Result, Out], ex Executor, col *Collector) (Out, error) {
	var zero Out
	if ex == nil {
		ex = Sharded{Workers: 1, Shards: 1}
	}
	// Telemetry is strictly observational: every instrument below is
	// nil-safe, results never depend on telemetry state, and with no
	// telemetry installed each site costs one nil check.
	tel := obs.Active()
	var root *obs.Span
	if tel != nil {
		root = tel.Events.StartSpan("campaign", map[string]string{
			"campaign": c.Name(), "executor": ex.Name(),
		})
	}
	planSpan := root.Child("plan", nil)
	plan, err := c.Plan()
	planSpan.End()
	if err != nil {
		root.End()
		return zero, fmt.Errorf("%s: plan: %w", c.Name(), err)
	}

	var keys []uint64
	if s, ok := any(c).(Sharder[Run]); ok {
		keys = make([]uint64, len(plan))
		for i, r := range plan {
			keys[i] = s.ShardKey(r, i)
		}
	}

	// The campaign's trace id is its plan hash: deterministic, derived
	// from identity alone, and independently computable by every process
	// that handles a shard — traces from the whole fleet correlate with
	// no id handshake.
	var trace string
	var live *obs.LiveCampaign
	if tel != nil {
		trace = obs.TraceID(PlanHash(c.Name(), len(plan), keys))
		root.SetTrace(trace)
		live = tel.StartCampaign(c.Name(), ex.Name(), trace, len(plan))
		defer tel.EndCampaign(live)
	}

	results := make([]Result, len(plan))
	fn := func(i int) error {
		res, err := c.Execute(ctx, plan[i], i)
		if err != nil {
			return fmt.Errorf("%s: run %d%s: %w", c.Name(), i, describe(c, plan, i), err)
		}
		results[i] = res
		return nil
	}

	// Redispatch deltas bracket the execution so the collector's
	// row reports only this campaign's movement even when several
	// campaigns share one process-wide telemetry.
	mark := MarkTelemetry(tel)
	if tel != nil {
		inner := fn
		fn = func(i int) error {
			runStart := time.Now()
			err := inner(i)
			tel.RunDur.ObserveSince(runStart)
			if err == nil {
				tel.RunDone(live)
			}
			return err
		}
	}
	execSpan := root.Child("execute", map[string]string{"runs": strconv.Itoa(len(plan))})
	if tel != nil {
		// Carry the execute span and trace id to executors and
		// dispatchers. Gated on telemetry so the disabled path never
		// pays the context allocation.
		ctx = obs.WithTrace(ctx, execSpan, trace)
	}
	start := time.Now()
	// Executors that can source results from worker processes or a
	// checkpoint journal get the payload path, provided the campaign's
	// results can cross a process boundary (Wire). Campaigns without a
	// codec fall back to plain in-process scheduling.
	if pex, isPayload := ex.(PayloadExecutor); isPayload {
		if w, hasWire := any(c).(Wire[Result]); hasWire {
			err = pex.RunPayload(ctx, PayloadJob{
				Campaign: c.Name(),
				N:        len(plan),
				Keys:     keys,
				PlanHash: PlanHash(c.Name(), len(plan), keys),
				Exec:     func(i int) error { return call(fn, i) },
				Encode:   func(i int) ([]byte, error) { return w.EncodeResult(results[i]) },
				Store: func(i int, payload []byte) error {
					res, derr := w.DecodeResult(payload)
					if derr != nil {
						return derr
					}
					results[i] = res
					// Runs dispatched to worker processes (or replayed
					// from a checkpoint) land here, not through fn.
					tel.RunDone(live)
					return nil
				},
			})
		} else {
			err = ex.Run(ctx, len(plan), keys, fn)
		}
	} else {
		err = ex.Run(ctx, len(plan), keys, fn)
	}
	execSpan.End()
	if col != nil {
		ext := Extras{}
		if p, ok := any(c).(Planned); ok {
			ext.RunsPlanned = p.PlannedRuns()
		}
		mark.Fill(&ext)
		col.ObserveExt(c.Name(), len(plan), time.Since(start), ext)
	}
	if err != nil {
		root.End()
		// Panics are recovered inside the executor, which cannot know the
		// run's meaning; attach the campaign-level description here.
		var pe *PanicError
		if errors.As(err, &pe) && pe.Index >= 0 && pe.Index < len(plan) {
			err = fmt.Errorf("%s: run %d%s: %w", c.Name(), pe.Index, describe(c, plan, pe.Index), err)
		}
		return zero, err
	}
	reduceSpan := root.Child("reduce", nil)
	out, err := c.Reduce(plan, results)
	reduceSpan.End()
	root.End()
	return out, err
}

// describe renders run i via the campaign's Describer, if implemented.
func describe[Run, Result, Out any](c Campaign[Run, Result, Out], plan []Run, i int) string {
	if d, ok := any(c).(Describer[Run]); ok {
		if s := d.Describe(plan[i], i); s != "" {
			return " (" + s + ")"
		}
	}
	return ""
}
