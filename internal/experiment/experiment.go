// Package experiment orchestrates the paper's fault-injection campaigns
// end to end on the reimplemented target: permeability estimation
// (Table 1), detection coverage under the input error model (Table 4)
// and under the internal error model (Figure 3). It is the "measured
// mode" of DESIGN.md §3 — absolute numbers are properties of our
// reconstructed target, the shape is compared against the paper in
// EXPERIMENTS.md and integration tests.
//
// Every campaign is expressed as a campaign.Campaign (Plan, Execute,
// Reduce) and scheduled by a pluggable campaign.Executor; the entry
// points here only build plans and fold results. Results are invariant
// across executors, worker counts and shard counts — all randomness is
// keyed by plan index, never by scheduling.
//
// Campaigns are generic over the system under test: everything
// target-specific — rig construction, test cases, assertion banks,
// completion and failure semantics, seed policies — is reached through
// the sut.Target seam, selected by Options.Target from the process-wide
// registry (docs/targets.md). The default is the paper's arrestment
// system; the campaigns run unchanged against any registered entry.
package experiment

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/campaign"
	"repro/internal/campaign/dispatch"
	"repro/internal/fi"
	"repro/internal/model"
	"repro/internal/sut"
	"repro/internal/trace"
)

// DispatchConfig selects multi-process campaign execution: shards are
// shipped to worker subprocesses (re-execs of the current binary in
// worker mode) with per-shard deadlines, retries, integrity checks and
// optional checkpoint/resume. All fields beyond Command tune the
// hardening; results are byte-identical to in-process execution.
type DispatchConfig struct {
	// Command is the worker argv; empty runs shards in-process (the
	// dispatcher's degraded mode, still honoring Checkpoint).
	Command []string `json:"-"`
	// Env is appended to each worker's environment.
	Env []string `json:"-"`
	// Checkpoint names the shard journal enabling crash/resume ("" off).
	Checkpoint string `json:"-"`
	// ShardTimeout is the per-shard worker deadline (0 selects
	// dispatch.DefaultShardTimeout).
	ShardTimeout time.Duration `json:"-"`
	// Retries is how many times a failed shard is re-dispatched
	// (0 selects the default budget; negative disables retries).
	Retries int `json:"-"`
	// Log receives dispatcher diagnostics (nil discards them).
	Log io.Writer `json:"-"`
	// WorkerStderr receives worker-process stderr (nil discards it).
	WorkerStderr io.Writer `json:"-"`

	// Fleet lists networked worker-agent addresses; FleetListen
	// additionally accepts incoming agent registrations. Either being
	// set moves execution onto the fleet coordinator (with the
	// subprocess dispatcher as its degradation fallback).
	Fleet       []string `json:"-"`
	FleetListen string   `json:"-"`
	// Heartbeat is the fleet worker ping interval (0 selects the
	// default; negative disables heartbeats).
	Heartbeat time.Duration `json:"-"`
	// Spec is the encoded WorkerSpec the fleet coordinator ships to
	// worker agents at handshake (the same JSON Env carries for
	// subprocess workers).
	Spec string `json:"-"`
}

// Options configures a campaign.
type Options struct {
	// Target names the registered system under test ("" selects
	// sut.DefaultTarget, the arrestment system).
	Target string
	// Cases is the test-case workload (the paper's 25 arrestments for
	// the default target).
	Cases []sut.Case
	// Seed drives all campaign randomness (bit and time choices) and
	// plant noise. Same seed, same results, regardless of Workers.
	Seed int64
	// Workers bounds campaign parallelism (runs are independent).
	Workers int
	// Shards overrides the sharded executor's deterministic shard count
	// (0 selects campaign.DefaultShards). Like Workers it never affects
	// results, only how the plan is partitioned for scheduling.
	Shards int
	// Timings, when non-nil, receives one engine-observed wall-clock row
	// per campaign (the BENCH_campaigns.json hook).
	Timings *campaign.Collector `json:"-"`
	// Dispatch, when non-nil, moves execution onto the fault-tolerant
	// subprocess dispatcher. Never set inside a worker process.
	Dispatch *DispatchConfig `json:"-"`
	// MaxRunMs bounds a single run.
	MaxRunMs int64
	// TailMs extends recording past software arrest, so detections
	// around standstill are observed.
	TailMs int64
	// GraceMs extends injected runs past the golden horizon before
	// declaring "not arrested".
	GraceMs int64
	// PeriodicMs is the injection period of the internal error model.
	PeriodicMs int64

	// Adaptive enables the adaptive-campaign layer: def/use equivalence
	// pruning of the internal-model grid and sequential early stopping
	// of permeability streams (docs/adaptive.md). Off, campaigns run the
	// paper-faithful exact grid.
	Adaptive bool
	// StopHalfWidth is the Wilson 95% half-width at which an adaptive
	// stream stops sampling (0 selects the 0.05 default; negative
	// disables early stopping, leaving only equivalence pruning).
	StopHalfWidth float64
	// StopMinTrials is the floor below which the stopping rule never
	// fires (0 selects the 100 default; negative means no floor).
	StopMinTrials int
}

// DefaultOptions returns the full-size campaign configuration for the
// default (arrestment) target.
func DefaultOptions(seed int64) Options {
	opts, err := DefaultOptionsFor(sut.DefaultTarget, seed)
	if err != nil {
		panic(err) // the default target is always registered
	}
	return opts
}

// DefaultOptionsFor returns the full-size campaign configuration of a
// registered target: its workload grid and horizon defaults.
func DefaultOptionsFor(name string, seed int64) (Options, error) {
	t, err := sut.Lookup(name)
	if err != nil {
		return Options{}, err
	}
	d := t.Defaults()
	return Options{
		Target:     t.Name(),
		Cases:      t.DefaultCases(),
		Seed:       seed,
		Workers:    8,
		MaxRunMs:   d.MaxRunMs,
		TailMs:     d.TailMs,
		GraceMs:    d.GraceMs,
		PeriodicMs: d.PeriodicMs,
	}, nil
}

// resolvedTarget looks the options' target up in the registry.
func resolvedTarget(opts Options) (sut.Target, error) {
	return sut.Lookup(opts.Target)
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	switch {
	case len(o.Cases) == 0:
		return fmt.Errorf("experiment: no test cases")
	case o.Workers < 1:
		return fmt.Errorf("experiment: Workers %d must be >= 1", o.Workers)
	case o.MaxRunMs <= 0:
		return fmt.Errorf("experiment: MaxRunMs %d must be positive", o.MaxRunMs)
	case o.TailMs < 0 || o.GraceMs < 0:
		return fmt.Errorf("experiment: negative tail/grace")
	case o.PeriodicMs <= 0:
		return fmt.Errorf("experiment: PeriodicMs %d must be positive", o.PeriodicMs)
	}
	if d := o.Dispatch; d != nil {
		if d.ShardTimeout < 0 {
			return fmt.Errorf("experiment: Dispatch.ShardTimeout %v must not be negative", d.ShardTimeout)
		}
		if d.Retries < -1 {
			return fmt.Errorf("experiment: Dispatch.Retries %d must be >= -1", d.Retries)
		}
	}
	return nil
}

// executor returns the executor the options select: the subprocess
// dispatcher when Dispatch is configured, otherwise the sharded worker
// pool — for a single worker, one shard in plan order, the serial
// reference.
func (o Options) executor() campaign.Executor {
	if d := o.Dispatch; d != nil {
		sub := dispatch.Subprocess{
			Command:      d.Command,
			Env:          d.Env,
			WorkerStderr: d.WorkerStderr,
			Workers:      o.Workers,
			Shards:       o.Shards,
			ShardTimeout: d.ShardTimeout,
			Retries:      d.Retries,
			Seed:         o.Seed,
			Checkpoint:   d.Checkpoint,
			Log:          d.Log,
		}
		if len(d.Fleet) > 0 || d.FleetListen != "" {
			return &dispatch.Fleet{
				Subprocess: sub,
				Addrs:      d.Fleet,
				Listen:     d.FleetListen,
				Spec:       d.Spec,
				Heartbeat:  d.Heartbeat,
			}
		}
		return &sub
	}
	if o.Workers <= 1 {
		// One shard, not o.Shards: plan order and a single shard span.
		return campaign.Sharded{Workers: 1, Shards: 1}
	}
	return campaign.Sharded{Workers: o.Workers, Shards: o.Shards}
}

// golden is the reference data of one test case.
type golden struct {
	tc        sut.Case
	trace     *trace.Trace
	arrestMs  int64
	horizonMs int64
	// cps[i] is the rig state at the start of slot
	// (i+1)*goldenCheckpointMs.
	cps []*sut.Checkpoint
}

// goldenCheckpointMs is the golden-run checkpoint cadence in scheduler
// time. Permeability runs fast-forward to the latest checkpoint before
// their flip and test convergence at checkpoint instants: a shorter
// cadence skips more slots but holds more memory per golden. One
// checkpoint is about 0.6 KB, since it saves the plant's noise position
// as a mark (physics.Mark); the keyframes the marks share add one
// generator copy (about 4.9 KB) per 1 024 noise draws.
const goldenCheckpointMs = 50

// checkpointAt returns the latest checkpoint at or before ms, or nil
// when ms precedes the first one.
func (g *golden) checkpointAt(ms int64) *sut.Checkpoint {
	i := min(int(ms/goldenCheckpointMs), len(g.cps)) - 1
	if i < 0 {
		return nil
	}
	return g.cps[i]
}

// describeRun renders one run's identity for engine diagnostics: the
// seed the run draws its randomness from, and its test case.
func describeRun(t sut.Target, opts Options, seed int64, caseIdx int) string {
	return fmt.Sprintf("seed=%d %s", seed, describeCase(t, opts, caseIdx))
}

// describeCase renders the test case a failing run belonged to.
func describeCase(t sut.Target, opts Options, caseIdx int) string {
	if caseIdx < 0 || caseIdx >= len(opts.Cases) {
		return fmt.Sprintf("case index %d", caseIdx)
	}
	tc := opts.Cases[caseIdx]
	return fmt.Sprintf("case=%d %s", tc.ID, t.DescribeCase(tc))
}

// recordGolden executes the fault-free reference run of a test case,
// recording every signal at the 1 ms slot period and checkpointing the
// rig every goldenCheckpointMs. Trace and checkpoints are retained:
// goldens are cached and compared against for the rest of the process.
func recordGolden(opts Options, t sut.Target, tc sut.Case) (*golden, error) {
	out, err := runInjection(rigSpec{t: t, seed: opts.Seed, tc: tc}, mechanisms{record: true, checkpoints: true},
		nil, goldenSchedule(opts.MaxRunMs, opts.TailMs))
	if err != nil {
		return nil, err
	}
	if out.DoneMs < 0 {
		return nil, fmt.Errorf("experiment: golden run of case %d (%s) did not complete within %d ms",
			tc.ID, t.DescribeCase(tc), opts.MaxRunMs)
	}
	return &golden{tc: tc, trace: out.Trace, arrestMs: out.DoneMs, horizonMs: out.EndMs, cps: out.Checkpoints}, nil
}

// goldens returns the reference data of every case, computing cache
// misses on the options' executor and memoizing them in the
// process-wide GoldenCache. Misses are sharded by the same case key as
// injection runs, so a sharded worker computes exactly the goldens its
// own shard needs.
func goldens(ctx context.Context, opts Options, t sut.Target) ([]*golden, error) {
	out := make([]*golden, len(opts.Cases))
	var missing []int
	for i, tc := range opts.Cases {
		if g, ok := globalGoldens.lookup(keyFor(opts, tc)); ok {
			out[i] = g
		} else {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		return out, nil
	}
	keys := make([]uint64, len(missing))
	for j, i := range missing {
		keys[j] = shardKeyFor(opts, opts.Cases[i])
	}
	err := opts.executor().Run(ctx, len(missing), keys, func(j int) error {
		i := missing[j]
		g, err := recordGolden(opts, t, opts.Cases[i])
		if err != nil {
			return fmt.Errorf("golden run of case %d: %w", opts.Cases[i].ID, err)
		}
		out[i] = g
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, i := range missing {
		globalGoldens.store(keyFor(opts, opts.Cases[i]), out[i])
	}
	return out, nil
}

// probePort resolves the target's probe input to the single consuming
// port the sensor-side studies (tightness, model sensitivity,
// integration) corrupt, plus the probed signal's declaration.
func probePort(t sut.Target) (model.PortRef, *model.Signal, error) {
	sys := t.System()
	in := t.Probe().Input
	consumers := sys.ConsumersOf(in)
	if len(consumers) != 1 {
		return model.PortRef{}, nil, fmt.Errorf("experiment: probe input %s of target %s has %d consumers",
			in, t.Name(), len(consumers))
	}
	sig, ok := sys.Signal(in)
	if !ok {
		return model.PortRef{}, nil, fmt.Errorf("experiment: target %s probe signal %s not in system", t.Name(), in)
	}
	return consumers[0], sig, nil
}

// probeFlip is the fault of a sensor-side study run: a transient flip
// at the probe port drawn from seed, or none for a fault-free run.
func probeFlip(t sut.Target, g *golden, port model.PortRef, sig *model.Signal, seed int64, faultFree bool) fault {
	if faultFree {
		return nil
	}
	rng := runRand(seed)
	return injected(fi.NewInjector(drawFlip(rng, port, sig, t.InjectWindow(g.arrestMs))))
}

// describeProbeRun renders a sensor-side study run: an injection names
// the seed it draws from; a fault-free run draws none.
func describeProbeRun(t sut.Target, opts Options, caseIdx int, seed int64, faultFree bool) string {
	if faultFree {
		return describeCase(t, opts, caseIdx) + " golden"
	}
	return describeRun(t, opts, seed, caseIdx) + " injected"
}
