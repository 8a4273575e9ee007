// Package obs is the campaign machinery's telemetry layer: atomic
// counters and gauges, fixed-bucket histograms, span tracing on
// monotonic clocks, a structured NDJSON event log, a rate-limited live
// progress line, and an HTTP exposition surface (Prometheus text
// /metrics, /healthz, expvar /debug/vars, net/http/pprof).
//
// The layer is stdlib-only and strictly optional: a process that never
// installs a Telemetry pays a nil-pointer check per instrumentation
// site and allocates nothing (every instrument method is nil-safe, and
// BenchmarkDisabledHotPath pins the disabled path at zero allocations).
// Campaign results are never derived from telemetry state, so enabling
// or disabling it cannot perturb output — the determinism tests in
// internal/experiment pin campaigns byte-identical with telemetry on
// and off, including under chaos and subprocess dispatch.
//
// Instrumented code reads the process-wide telemetry with Active():
//
//	if tel := obs.Active(); tel != nil {
//	    tel.RigAcquires.Inc()
//	}
//
// Hot paths use the pre-resolved instrument fields on Telemetry (plain
// atomic adds); cold paths may resolve labeled series through the
// registry. Worker processes install their own Telemetry and forward
// counter/histogram deltas to the parent dispatcher over the shard wire
// protocol (see internal/campaign/dispatch), so dispatcher-mode numbers
// aggregate correctly in the parent's /metrics.
package obs

import (
	"io"
	"sync/atomic"
	"time"
)

// Telemetry bundles one process's telemetry state: the metric registry,
// the optional event log and progress line, and the pre-resolved
// instruments the engine's hot paths increment without a registry
// lookup.
type Telemetry struct {
	// Reg holds every metric series for /metrics and /debug/vars.
	Reg *Registry
	// Events, when non-nil, receives NDJSON span/event records
	// (the -events-out stream).
	Events *EventLog
	// Progress, when non-nil, renders the running campaign's record
	// in Live as the stderr progress line; it counts nothing itself.
	Progress *Progress
	// Live is the one record of campaign progress, behind the /events
	// SSE stream, the /dash page and the progress line. Always present
	// on a built Telemetry.
	Live *Live

	start time.Time

	// Engine.
	Campaigns *Counter   // campaigns executed end to end
	RunDur    *Histogram // per-run wall time, seconds

	// Distributed tracing.
	TraceWorkerSpans *Counter // worker-recorded spans folded into the parent trace

	// In-process sharded executor.
	ShardsPlanned *Counter   // shards partitioned for execution
	ShardsDone    *Counter   // shards completed
	ShardDur      *Histogram // per-shard wall time, seconds (all executors)

	// Subprocess dispatcher.
	DispatchShards    *Counter // shards planned by the dispatcher (incl. resumed)
	DispatchResumed   *Counter // shards replayed from a checkpoint journal
	DispatchDone      *Counter // shards completed by the dispatcher
	DispatchRetries   *Counter // shard re-dispatches after retryable failures
	DispatchIntegrity *Counter // integrity-check failures on shard responses
	DispatchPermanent *Counter // permanent (campaign-level) shard failures
	WorkerSpawns      *Counter // worker processes spawned
	WorkerKills       *Counter // worker processes killed/destroyed
	Degraded          *Gauge   // 1 while the dispatcher runs shards in-process

	// Networked fleet dispatcher.
	FleetWorkers       *Gauge   // live fleet worker connections
	FleetRegistrations *Counter // fleet workers joined (dialed or registered)
	FleetReconnects    *Counter // reconnects to workers that were lost
	FleetStragglers    *Counter // duplicate dispatches racing straggler shards

	// Golden cache (internal/experiment).
	GoldenHits   *Counter
	GoldenMisses *Counter
	GoldenSize   *Gauge

	// Rig pool (internal/target).
	RigAcquires *Counter // rig acquisitions (reuse + build)
	RigReuses   *Counter // acquisitions served by resetting a pooled rig
	RigBuilds   *Counter // acquisitions that built a fresh rig
	RigReleases *Counter // rigs returned to the pool

	// Permeability runs (internal/experiment): where each run's golden
	// horizon of scheduler slots went. Simulated plus the three skip
	// counts is the horizon.
	SlotsSimulated     *Counter // slots executed
	SlotsFastForwarded *Counter // slots before the restored golden checkpoint
	SlotsDecided       *Counter // slots left once the outcome was decided
	SlotsConverged     *Counter // slots left once the run rejoined its golden run
	// How each permeability run ended. The three run counts sum to the
	// runs; SlotsHorizon is the part of SlotsSimulated that horizon runs
	// executed.
	RunsDecided   *Counter // runs stopped once the outcome was decided
	RunsConverged *Counter // runs stopped once they rejoined their golden run
	RunsHorizon   *Counter // runs that reached the golden horizon
	SlotsHorizon  *Counter // slots executed by runs that reached the horizon
}

// Config selects the optional exposure surfaces of a Telemetry.
type Config struct {
	// EventSink, when non-nil, receives the NDJSON event/span stream.
	EventSink io.Writer
	// ProgressSink, when non-nil, receives the live progress line.
	ProgressSink io.Writer
	// ProgressInterval rate-limits the progress line (0 selects ~1 Hz).
	ProgressInterval time.Duration
}

// New builds a Telemetry with a fresh registry and the standard
// instrument set pre-resolved. Exposure surfaces (events, progress) are
// attached per the config; the HTTP surface is served separately with
// Handler/Serve.
func New(cfg Config) *Telemetry {
	r := NewRegistry()
	t := &Telemetry{
		Reg:   r,
		Live:  NewLive(),
		start: time.Now(),

		Campaigns: r.Counter("repro_campaigns_total"),
		RunDur:    r.Histogram("repro_run_duration_seconds", DurationBuckets),

		TraceWorkerSpans: r.Counter("repro_trace_worker_spans_total"),

		ShardsPlanned: r.Counter("repro_shards_total"),
		ShardsDone:    r.Counter("repro_shards_done_total"),
		ShardDur:      r.Histogram("repro_shard_duration_seconds", DurationBuckets),

		DispatchShards:    r.Counter("repro_dispatch_shards_total"),
		DispatchResumed:   r.Counter("repro_dispatch_shards_resumed_total"),
		DispatchDone:      r.Counter("repro_dispatch_shards_done_total"),
		DispatchRetries:   r.Counter("repro_dispatch_shard_retries_total"),
		DispatchIntegrity: r.Counter("repro_dispatch_integrity_failures_total"),
		DispatchPermanent: r.Counter("repro_dispatch_permanent_failures_total"),
		WorkerSpawns:      r.Counter("repro_dispatch_worker_spawns_total"),
		WorkerKills:       r.Counter("repro_dispatch_worker_kills_total"),
		Degraded:          r.Gauge("repro_dispatch_degraded"),

		FleetWorkers:       r.Gauge("repro_fleet_workers"),
		FleetRegistrations: r.Counter("repro_fleet_registrations_total"),
		FleetReconnects:    r.Counter("repro_fleet_reconnects_total"),
		FleetStragglers:    r.Counter("repro_fleet_straggler_redispatches_total"),

		GoldenHits:   r.Counter("repro_golden_cache_hits_total"),
		GoldenMisses: r.Counter("repro_golden_cache_misses_total"),
		GoldenSize:   r.Gauge("repro_golden_cache_size"),

		RigAcquires: r.Counter("repro_rig_acquires_total"),
		RigReuses:   r.Counter("repro_rig_reuses_total"),
		RigBuilds:   r.Counter("repro_rig_builds_total"),
		RigReleases: r.Counter("repro_rig_releases_total"),

		SlotsSimulated:     r.Counter("repro_perm_slots_simulated_total"),
		SlotsFastForwarded: r.Counter("repro_perm_slots_fast_forwarded_total"),
		SlotsDecided:       r.Counter("repro_perm_slots_stopped_decided_total"),
		SlotsConverged:     r.Counter("repro_perm_slots_stopped_converged_total"),
		RunsDecided:        r.Counter("repro_perm_runs_stopped_decided_total"),
		RunsConverged:      r.Counter("repro_perm_runs_stopped_converged_total"),
		RunsHorizon:        r.Counter("repro_perm_runs_horizon_total"),
		SlotsHorizon:       r.Counter("repro_perm_slots_simulated_horizon_total"),
	}
	if cfg.EventSink != nil {
		t.Events = NewEventLog(cfg.EventSink)
	}
	if cfg.ProgressSink != nil {
		t.Progress = NewProgress(cfg.ProgressSink, cfg.ProgressInterval)
	}
	return t
}

// Uptime reports how long the telemetry has been live (monotonic).
func (t *Telemetry) Uptime() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}

// Close stops the progress renderer and flushes the event log. The
// registry stays readable (final scrapes and snapshots still work).
func (t *Telemetry) Close() {
	if t == nil {
		return
	}
	t.Progress.Stop()
	t.Events.Flush()
}

// active is the process-wide telemetry. A nil pointer is the disabled
// state: Active() then returns nil and every instrumentation site
// reduces to one atomic load plus a nil check.
var active atomic.Pointer[Telemetry]

// Active returns the process-wide telemetry, or nil when disabled.
func Active() *Telemetry { return active.Load() }

// Install makes t the process-wide telemetry (nil disables telemetry).
// It returns the previously installed value so tests can restore it.
func Install(t *Telemetry) *Telemetry { return active.Swap(t) }

// EnsureActive installs a registry-only Telemetry if none is active and
// returns the active one. Worker processes call it so their metrics
// exist to forward even when the parent never exposed an HTTP surface.
func EnsureActive() *Telemetry {
	if t := active.Load(); t != nil {
		return t
	}
	t := New(Config{})
	if active.CompareAndSwap(nil, t) {
		return t
	}
	return active.Load()
}
