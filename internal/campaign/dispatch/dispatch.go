package dispatch

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	dnet "repro/internal/campaign/dispatch/net"
	"repro/internal/obs"
)

// DefaultShardTimeout is the per-shard deadline when ShardTimeout is
// zero. A worker that has not answered a shard within it is declared
// hung and destroyed, and the shard is re-dispatched.
const DefaultShardTimeout = 5 * time.Minute

// helloTimeout bounds every connector's handshake: a spawned child, a
// dialed agent or an accepted registrant that has not completed it
// within this long is dropped.
const helloTimeout = 30 * time.Second

// DefaultConnectWait bounds how long a Fleet waits for its first
// worker before degrading to the next rung of its fallback list.
const DefaultConnectWait = 10 * time.Second

// Subprocess is a campaign.PayloadExecutor that ships whole shards to
// worker processes over stdin/stdout frames. The plan is partitioned
// exactly like campaign.Sharded — run i lands in shard keys[i]%Shards,
// a pure function of campaign identity — so output is byte-identical
// to in-process execution.
//
// Its connector list is one spawn connector (when Command is set)
// followed by in-process execution; the coordinator behind it is the
// one Fleet uses, so the seam is hardened the same way end to end:
//
//   - a worker that crashes (any exit, including SIGKILL) or hangs past
//     ShardTimeout is killed and its shard retried on a fresh worker,
//     with capped exponential backoff and deterministic jitter; the
//     failed worker is never reused;
//   - every response is integrity-checked (FNV-1a over the shard id and
//     payloads, computed worker-side); a mismatch is treated as a
//     corrupted result and the shard re-run;
//   - campaign-level failures reported by a worker (a run returning an
//     error, or panicking) are deterministic and abort immediately —
//     retrying cannot heal them;
//   - when Checkpoint names a journal, each completed shard is synced
//     to it, and a later invocation of the same campaign resumes by
//     replaying journaled shards and dispatching only the missing ones;
//   - when Command is empty, or spawning the first worker fails,
//     execution degrades gracefully to in-process shard execution
//     (same partition, same checkpointing) instead of failing.
type Subprocess struct {
	// Command is the argv (binary plus args) that starts one worker —
	// typically the current binary re-exec'd with a hidden worker flag.
	// Empty selects in-process execution.
	Command []string
	// Env is appended to the parent environment of every worker.
	Env []string
	// WorkerStderr receives worker stderr (nil discards it).
	WorkerStderr io.Writer
	// Workers bounds how many shards are in flight at once (>= 1); in
	// subprocess mode it is also the ceiling on live worker processes.
	Workers int
	// Shards is the partition width (0 selects campaign.DefaultShards).
	Shards int
	// ShardTimeout is the per-shard deadline (0 selects
	// DefaultShardTimeout).
	ShardTimeout time.Duration
	// Retries is how many times a failed shard is re-dispatched after
	// its first attempt (0 selects 2; negative disables retries).
	Retries int
	// BackoffBase and BackoffCap shape the retry backoff (zero selects
	// 2 ms and 250 ms).
	BackoffBase, BackoffCap time.Duration
	// Seed feeds the deterministic backoff jitter.
	Seed int64
	// Checkpoint, when non-empty, names the shard journal enabling
	// crash/resume.
	Checkpoint string
	// Log receives dispatcher diagnostics — retries, degradation,
	// resume accounting (nil discards them).
	Log io.Writer
}

func (s *Subprocess) Name() string {
	mode := "subprocess"
	if len(s.Command) == 0 {
		mode = "subprocess-inproc"
	}
	co := s.coordinator()
	return fmt.Sprintf("%s(workers=%d,shards=%d)", mode, co.workers(), co.shards())
}

// Run is the plain executor path, used when a campaign has no wire
// codec: nothing can cross a process boundary, so it executes on the
// in-process sharded pool with the same partition.
func (s *Subprocess) Run(ctx context.Context, n int, keys []uint64, fn func(i int) error) error {
	return s.coordinator().Run(ctx, n, keys, fn)
}

// RunPayload executes the campaign's plan shard by shard: resume
// journaled shards, then dispatch the rest to spawned workers (or run
// them in process when degraded), retrying infrastructure failures per
// shard.
func (s *Subprocess) RunPayload(ctx context.Context, job campaign.PayloadJob) error {
	return s.coordinator().RunPayload(ctx, job)
}

func (s *Subprocess) coordinator() *coordinator {
	co := &coordinator{sched: *s}
	if len(s.Command) > 0 {
		co.tiers = append(co.tiers, co.spawnTier(spawner{argv: s.Command, env: s.Env, stderr: s.WorkerStderr}))
	}
	return co
}

// Fleet is a campaign.PayloadExecutor that balances shards across a
// fleet of networked worker agents (ServeNet / DialAndServe peers).
// The partition, wire frames, integrity checks and checkpoint journal
// are exactly the subprocess dispatcher's, so output stays
// byte-identical to the serial run and a journal written under one
// transport resumes under the other.
//
// Its connector list is dial-out (Addrs) and accept-in (Listen), then
// spawn (the embedded Subprocess's Command), then in-process
// execution. On top of the shared per-shard deadline/retry/integrity
// machinery, the network rung adds:
//
//   - workers heartbeat while connected (even mid-shard), so a dead
//     connection is detected after ~3 missed beats instead of the full
//     shard deadline; lost workers are re-dialed with capped backoff
//     and rejoin the rotation;
//   - a shard still unanswered after StragglerAfter is re-dispatched
//     to a second idle worker; the first integrity-checked result wins
//     and the loser is discarded deterministically (its payloads are
//     never stored);
//   - an empty fleet degrades gracefully: at campaign start to the next
//     rung of the connector list, and mid-campaign — every worker gone,
//     none returning — each waiting shard runs in-process rather than
//     stalling the campaign.
type Fleet struct {
	// Subprocess holds the scheduling settings — Workers, Shards,
	// ShardTimeout, Retries, backoff, Seed, Checkpoint, Log — and the
	// spawn rung the fleet falls back to when it is empty (an empty
	// Command degrades straight to in-process execution).
	Subprocess
	// Addrs lists worker agent endpoints to dial (host:port).
	Addrs []string
	// Listen, when non-empty, also accepts incoming worker
	// registrations (DialAndServe agents) on this address.
	Listen string
	// Spec is the opaque campaign spec shipped to every worker at
	// handshake (the experiment layer's encoded WorkerSpec).
	Spec string
	// TLS wraps dialed worker connections when non-nil; ListenTLS the
	// accepted ones.
	TLS, ListenTLS *tls.Config
	// Tap, when non-nil, intercepts every frame on every connection —
	// the chaos seam.
	Tap dnet.Tap
	// Heartbeat is the worker ping interval (0 selects
	// DefaultHeartbeat; negative disables heartbeats and dead-peer
	// read deadlines).
	Heartbeat time.Duration
	// StragglerAfter is how long a shard may stay unanswered before a
	// duplicate is dispatched to another worker (0 selects half the
	// shard deadline; negative disables straggler re-dispatch).
	StragglerAfter time.Duration
	// ConnectWait is how long to wait for the first worker before
	// degrading (0 selects DefaultConnectWait).
	ConnectWait time.Duration
}

func (f *Fleet) Name() string {
	endpoints := len(f.Addrs)
	if f.Listen != "" {
		endpoints++
	}
	co := f.Subprocess.coordinator()
	return fmt.Sprintf("fleet(workers=%d,shards=%d,endpoints=%d)", co.workers(), co.shards(), endpoints)
}

// RunPayload executes the campaign's plan across the fleet: resume
// journaled shards, connect to the workers, then balance the rest over
// the live connections with per-shard retries and straggler
// re-dispatch. With no reachable worker the campaign moves down the
// connector list — same partition, same journal, same output.
func (f *Fleet) RunPayload(ctx context.Context, job campaign.PayloadJob) error {
	return f.coordinator(obs.TraceFromContext(ctx)).RunPayload(ctx, job)
}

// coordinator builds the fleet's coordinator: the network rung ahead
// of the embedded Subprocess's; trace is the campaign trace id
// announced to joining agents.
func (f *Fleet) coordinator(trace string) *coordinator {
	co := f.Subprocess.coordinator()
	co.tiers = append([]tier{co.fleetTier(f, trace)}, co.tiers...)
	return co
}

// coordinator runs payload campaigns over an ordered list of connector
// tiers: the first tier that yields a worker carries the campaign, and
// an exhausted list runs shards in process. It owns everything the
// tiers share — partition, journal, retry, integrity checks and phase
// attribution — so each lives in exactly one place.
type coordinator struct {
	// sched is the executor's configuration.
	sched Subprocess
	tiers []tier
	seq   atomic.Uint64
}

// tier is one rung of the fallback list: the connectors that feed the
// registry while it carries the campaign.
type tier struct {
	// name labels the tier's dispatch spans; it is also what the rung
	// above reports degrading to.
	name string
	// start launches the tier's connectors on r; an error means the
	// tier cannot run.
	start func(ctx context.Context, r *registry) error
	// wait is the patience for the first worker.
	wait time.Duration
	// degrade reports the tier failing (start's error, or nil when the
	// wait ran out); a non-nil return aborts the campaign.
	degrade func(campaign string, err error, next string) error
	// net is the handshake config shipped to network agents; nil for
	// spawned children, which read their spec from the environment.
	net *netConfig
	// straggler is the duplicate-dispatch deadline (0 disables it).
	straggler time.Duration
}

func (co *coordinator) workers() int { return max(1, co.sched.Workers) }

func (co *coordinator) shards() int {
	if co.sched.Shards < 1 {
		return campaign.DefaultShards
	}
	return co.sched.Shards
}

func (co *coordinator) shardTimeout() time.Duration {
	return orDefault(co.sched.ShardTimeout, DefaultShardTimeout)
}

// orDefault returns d, or def when d is not positive.
func orDefault(d, def time.Duration) time.Duration {
	if d <= 0 {
		return def
	}
	return d
}

// zeroDefault returns d, or def when d is zero; negative d means off.
func zeroDefault(d, def time.Duration) time.Duration {
	if d == 0 {
		return def
	}
	return max(0, d)
}

// attempts returns the total tries per shard.
func (co *coordinator) attempts() int {
	switch {
	case co.sched.Retries < 0:
		return 1
	case co.sched.Retries == 0:
		return defaultAttempts
	default:
		return co.sched.Retries + 1
	}
}

// Retry defaults shared by shard re-dispatch, fleet reconnects and
// agent re-registration.
const (
	// defaultAttempts is how many times a shard is tried in total when
	// Retries is zero.
	defaultAttempts = 3
	// defaultBackoffBase is the first retry delay when unset.
	defaultBackoffBase = 2 * time.Millisecond
	// defaultBackoffCap bounds the exponential backoff when unset.
	defaultBackoffCap = 250 * time.Millisecond
)

// backoffDelay returns the sleep before retry attempt `attempt`
// (1-based: the delay taken after the attempt-1 failure): capped
// exponential backoff plus deterministic jitter. The jitter is a pure
// function of (seed, key, attempt) — never of wall clock or scheduling
// — so a retried campaign backs off identically on every replay, which
// keeps fault-tolerance tests reproducible.
func backoffDelay(base, cap time.Duration, seed int64, key uint64, attempt int) time.Duration {
	if base <= 0 {
		base = defaultBackoffBase
	}
	if cap <= 0 {
		cap = defaultBackoffCap
	}
	d := base
	for i := 1; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d", seed, key, attempt)
	jitter := time.Duration(h.Sum64() % uint64(base))
	return d + jitter
}

// logMu serializes diagnostics from every coordinator, so concurrent
// campaigns sharing one log never interleave mid-line.
var logMu sync.Mutex

func (co *coordinator) logf(format string, args ...any) {
	if co.sched.Log == nil {
		return
	}
	logMu.Lock()
	fmt.Fprintf(co.sched.Log, format+"\n", args...)
	logMu.Unlock()
}

func (co *coordinator) Run(ctx context.Context, n int, keys []uint64, fn func(i int) error) error {
	return campaign.Sharded{Workers: co.workers(), Shards: co.sched.Shards}.Run(ctx, n, keys, fn)
}

// spawnTier is the rung that re-execs worker children over pipes, on
// demand, up to one per shard slot.
func (co *coordinator) spawnTier(sp spawner) tier {
	return tier{
		name: "subprocess",
		start: func(ctx context.Context, r *registry) error {
			// Probe: if the very first worker cannot be spawned (missing
			// binary, fork limits, sandbox), the tier degrades rather than
			// failing the campaign.
			c, err := r.open(ctx, sp)
			if err != nil {
				return err
			}
			r.wg.Add(1)
			go r.keep(ctx, sp, c)
			started := 1
			r.grow = func() {
				if started < r.slots {
					started++
					r.wg.Add(1)
					go r.keep(ctx, sp, nil)
				}
			}
			return nil
		},
		wait: helloTimeout,
		degrade: func(_ string, err error, next string) error {
			co.logf("dispatch: cannot spawn workers (%s); degrading to %s", errString(err), next)
			return nil
		},
	}
}

// fleetTier is the network rung: one dial loop per address plus, when
// Listen is set, an accept loop for agent registrations.
func (co *coordinator) fleetTier(f *Fleet, trace string) tier {
	heartbeat := zeroDefault(f.Heartbeat, DefaultHeartbeat)
	// Three missed heartbeats mean the worker (or the path to it) is gone.
	deadAfter := 3 * heartbeat
	wait := orDefault(f.ConnectWait, DefaultConnectWait)
	return tier{
		name: "fleet",
		start: func(ctx context.Context, r *registry) error {
			if f.Listen != "" {
				l, err := dnet.Listen(f.Listen, f.ListenTLS)
				if err != nil {
					return fmt.Errorf("fleet: cannot listen on %s: %w", f.Listen, err)
				}
				co.logf("fleet: accepting worker registrations on %s", l.Addr())
				context.AfterFunc(ctx, func() { l.Close() })
				r.wg.Add(1)
				go r.accept(ctx, l, f.Tap, deadAfter)
			}
			r.opening = len(f.Addrs)
			for _, addr := range f.Addrs {
				r.wg.Add(1)
				go r.keep(ctx, dialer{addr: addr, tls: f.TLS, tap: f.Tap, deadAfter: deadAfter}, nil)
			}
			return nil
		},
		wait: wait,
		degrade: func(name string, err error, next string) error {
			if err != nil {
				return err
			}
			co.logf("fleet: no workers reachable within %s; degrading to %s", wait, next)
			if tel := obs.Active(); tel != nil {
				tel.Events.Emit("fleet.degraded", map[string]string{"campaign": name})
			}
			return nil
		},
		net:       &netConfig{Spec: f.Spec, HeartbeatMs: heartbeat.Milliseconds(), Trace: trace},
		straggler: zeroDefault(f.StragglerAfter, co.shardTimeout()/2),
	}
}

// RunPayload executes the campaign's plan shard by shard: resume
// journaled shards, connect down the fallback list, then drive the
// pending shards through the shard slots.
func (co *coordinator) RunPayload(ctx context.Context, job campaign.PayloadJob) error {
	var tasks []task
	for _, b := range campaign.Partition(job.N, job.Keys, co.shards()) {
		tasks = append(tasks, task{id: shardID(job.PlanHash, b.ID, b.Runs), indices: b.Runs})
	}
	tel := obs.Active()
	tel.PlanShards(len(tasks), true)

	var j *journal
	if co.sched.Checkpoint != "" {
		var err error
		if j, err = openJournal(co.sched.Checkpoint); err != nil {
			return err
		}
		defer j.close()
	}
	pending := co.resumeJournaled(job, tasks, j)
	if len(pending) == 0 {
		return ctx.Err()
	}

	slots := min(co.workers(), len(pending))
	reg, err := co.connect(ctx, job.Campaign, slots)
	if err != nil {
		return err
	}
	if reg != nil {
		defer reg.close()
	} else if tel != nil {
		tel.Degraded.Set(1)
		tel.Events.Emit("dispatch.degraded", map[string]string{"campaign": job.Campaign})
		defer tel.Degraded.Set(0)
	}
	return campaign.RunSlots(ctx, pending, slots, func(ctx context.Context, t task) error {
		return co.runShard(ctx, job, t, j, reg)
	})
}

// connect walks the fallback list and returns the registry of the
// first tier that yields a worker; nil means the list ran out and
// shards run in process.
func (co *coordinator) connect(ctx context.Context, name string, slots int) (*registry, error) {
	for i, t := range co.tiers {
		rctx, cancel := context.WithCancel(ctx)
		r := &registry{co: co, tier: t, slots: slots, cancel: cancel, notify: make(chan struct{}, 1), all: make(map[*conn]bool)}
		err := t.start(rctx, r)
		if err == nil && r.waitReady(ctx, t.wait) {
			return r, nil
		}
		r.close()
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		next := "in-process execution"
		if i+1 < len(co.tiers) {
			next = co.tiers[i+1].name
		}
		if err := t.degrade(name, err, next); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// task is one shard of work: its deterministic id and plan indices
// (ascending).
type task struct {
	id      uint64
	indices []int
}

// permanentError marks failures retrying cannot heal (campaign-level
// run errors, plan mismatches): the dispatcher aborts instead of
// burning the retry budget.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// resumeJournaled replays every journaled shard of the plan and
// returns the pending remainder in plan order. The journal is keyed by
// (campaign, plan hash, shard id) — pure functions of campaign
// identity — so a checkpoint written over one connector resumes over
// any other.
func (co *coordinator) resumeJournaled(job campaign.PayloadJob, tasks []task, j *journal) []task {
	if j == nil {
		return tasks
	}
	tel := obs.Active()
	pending := tasks[:0]
	resumed := 0
	for _, t := range tasks {
		if payloads, ok := j.lookup(job.Campaign, hex64(job.PlanHash), hex64(t.id)); ok {
			if replayShard(job, t, payloads) {
				resumed++
				if tel != nil {
					tel.DispatchResumed.Inc()
					tel.FinishShard(obs.ShardStatus{
						ID: hex64(t.id), Worker: "checkpoint", State: "done", Runs: len(t.indices),
					}, 0, true)
				}
				continue
			}
			co.logf("dispatch: journaled shard %s failed to replay; re-running it", hex64(t.id))
		}
		pending = append(pending, t)
	}
	if resumed > 0 {
		co.logf("dispatch: resumed %d/%d shards of %s from checkpoint %s", resumed, len(tasks), job.Campaign, co.sched.Checkpoint)
		if tel != nil {
			tel.Events.Emit("dispatch.resume", map[string]string{
				"campaign": job.Campaign,
				"shards":   strconv.Itoa(resumed),
			})
		}
	}
	return pending
}

// replayShard stores a journaled shard's payloads; false means the
// entry could not be replayed (corrupt payload) and the shard must be
// re-run. A partial replay is harmless: the re-run overwrites every
// index-owned slot.
func replayShard(job campaign.PayloadJob, t task, payloads []runPayload) bool {
	return storeShard(job, t, payloads) == nil
}

// storeShard stores a shard's payloads, checking they cover exactly
// the shard's indices in order.
func storeShard(job campaign.PayloadJob, t task, payloads []runPayload) error {
	if len(payloads) != len(t.indices) {
		return fmt.Errorf("%d results for the %d runs of shard %s", len(payloads), len(t.indices), hex64(t.id))
	}
	for k, rp := range payloads {
		if rp.Index != t.indices[k] {
			return fmt.Errorf("result %d of shard %s is run %d, want run %d", k, hex64(t.id), rp.Index, t.indices[k])
		}
		if err := job.Store(rp.Index, rp.Payload); err != nil {
			return fmt.Errorf("run %d failed to decode: %w", rp.Index, err)
		}
	}
	return nil
}

// runShard drives one shard through attempt() until it succeeds, fails
// permanently, or the attempt budget is gone — with capped exponential
// backoff and deterministic jitter between attempts — and journals the
// verified result.
func (co *coordinator) runShard(ctx context.Context, job campaign.PayloadJob, t task, j *journal, reg *registry) error {
	attempts := co.attempts()
	tel := obs.Active()
	var shardStart time.Time
	if tel != nil {
		shardStart = time.Now()
	}
	var lastErr error
	classified := false
	for attempt := 1; attempt <= attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		payloads, done, err := co.attempt(ctx, job, t, j != nil, reg)
		if err == nil {
			if j != nil {
				if aerr := j.append(job.Campaign, hex64(job.PlanHash), hex64(t.id), payloads); aerr != nil {
					return aerr
				}
			}
			if attempt > 1 {
				co.logf("dispatch: shard %s (%d runs) completed on attempt %d/%d", hex64(t.id), len(t.indices), attempt, attempts)
			}
			if tel != nil {
				tel.FinishShard(done, time.Since(shardStart), true)
			}
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			// Classification is logged exactly once per failure, here:
			// permanent failures never reach the retry loop below.
			co.logf("dispatch: shard %s: permanent failure (campaign-level error; re-dispatch cannot heal it): %v", hex64(t.id), err)
			if tel != nil {
				tel.DispatchPermanent.Inc()
				tel.Events.Emit("dispatch.permanent", map[string]string{
					"shard": hex64(t.id), "error": err.Error(),
				})
			}
			return fmt.Errorf("dispatch: shard %s: %w", hex64(t.id), err)
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		lastErr = err
		if attempt == attempts {
			break
		}
		d := backoffDelay(co.sched.BackoffBase, co.sched.BackoffCap, co.sched.Seed, t.id, attempt)
		// The retryable classification (with the error) is logged on the
		// shard's first failure only; later attempts log the bare retry
		// so a flapping shard cannot flood the log.
		if !classified {
			classified = true
			co.logf("dispatch: shard %s attempt %d/%d failed: %v (classified retryable); retrying on a fresh worker in %s",
				hex64(t.id), attempt, attempts, err, d)
		} else {
			co.logf("dispatch: shard %s attempt %d/%d failed; retrying in %s", hex64(t.id), attempt, attempts, d)
		}
		if tel != nil {
			tel.RetryShard(obs.ShardStatus{
				ID: hex64(t.id), State: "retrying",
				Runs: len(t.indices), Attempts: attempt,
			})
			tel.Events.Emit("dispatch.retry", map[string]string{
				"shard":      hex64(t.id),
				"attempt":    strconv.Itoa(attempt),
				"backoff_ms": strconv.FormatInt(d.Milliseconds(), 10),
				"error":      err.Error(),
			})
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return fmt.Errorf("dispatch: shard %s failed after %d attempts: %w", hex64(t.id), attempts, lastErr)
}

// flight is one in-flight dispatch of a shard to one connection.
type flight struct {
	w      *conn
	resp   response
	err    error
	wallMs int64 // round-trip time of this dispatch, for phase attribution
}

// attempt performs one attempt of one shard. With no registry (the
// fallback list ran out), or a registry empty for a whole shard
// deadline, the shard runs in process. Otherwise the primary dispatch
// goes to the first idle connection; when the tier allows stragglers,
// a shard still unanswered after that deadline is duplicated to a
// second idle connection and the first valid (integrity-checked)
// result wins — the loser's payloads are never stored, so duplication
// cannot change output. Connections that produced transport errors or
// corrupt results are destroyed (their connector opens fresh ones);
// healthy ones return to the rotation. With telemetry on, a successful
// attempt also returns the shard's final status.
func (co *coordinator) attempt(ctx context.Context, job campaign.PayloadJob, t task, journaling bool, reg *registry) ([]runPayload, obs.ShardStatus, error) {
	if reg == nil {
		return runShardInProcess(ctx, job, t, journaling)
	}
	tel := obs.Active()
	trace := obs.TraceFromContext(ctx)
	var sp *obs.Span
	var start time.Time
	if tel != nil {
		start = time.Now()
		sp = obs.SpanFromContext(ctx).Child("dispatch.shard", map[string]string{
			"shard": hex64(t.id), "worker": reg.tier.name,
			"runs": strconv.Itoa(len(t.indices)),
		})
		defer sp.End()
	}
	w, err := reg.acquire(ctx, co.shardTimeout())
	if errors.Is(err, errNoWorkers) {
		reg.logf("no live workers; running shard %s in-process", hex64(t.id))
		return runShardInProcess(ctx, job, t, journaling)
	}
	if err != nil {
		return nil, obs.ShardStatus{}, err
	}
	queueMs := int64(0)
	if tel != nil {
		queueMs = time.Since(start).Milliseconds()
		tel.Live.UpdateShard(obs.ShardStatus{
			ID: hex64(t.id), Worker: w.id, State: "running",
			Runs: len(t.indices), QueueMs: queueMs,
		})
	}

	results := make(chan flight, 2) // the primary and at most one straggler duplicate
	send := func(w *conn) {
		req := request{
			Seq:      co.seq.Add(1),
			Campaign: job.Campaign,
			PlanHash: hex64(job.PlanHash),
			Shard:    hex64(t.id),
			Indices:  t.indices,
			Trace:    trace,
			Span:     sp.ID(),
		}
		tripStart := time.Now()
		resp, err := w.roundTrip(ctx, req, co.shardTimeout())
		results <- flight{w: w, resp: resp, err: err, wallMs: time.Since(tripStart).Milliseconds()}
	}
	inflight := 1
	go send(w)

	var stragglerC <-chan time.Time
	if reg.tier.straggler > 0 {
		timer := time.NewTimer(reg.tier.straggler)
		defer timer.Stop()
		stragglerC = timer.C
	}

	var lastErr error
	for inflight > 0 {
		select {
		case fl := <-results:
			inflight--
			err := fl.err
			var payloads []runPayload
			if err == nil {
				payloads, err = verifyAndStore(job, t, fl.resp)
			}
			var perm *permanentError
			if err != nil && !errors.As(err, &perm) {
				// Transport failure or corrupt result: drop the
				// connection, keep waiting on the duplicate if one races.
				reg.destroy(fl.w)
				lastErr = err
				continue
			}
			// A verified result, or a deterministic campaign failure every
			// duplicate would report too: either way the worker is healthy.
			reg.release(fl.w)
			drainFlights(reg, results, inflight)
			var done obs.ShardStatus
			if err == nil && tel != nil {
				// Attribute the winning flight: queue (waiting for a
				// worker), exec (the worker's own root-span time), net
				// (round trip minus exec — framing, pipes or TCP,
				// scheduling).
				execMs := obs.RootDurMs(fl.resp.Spans)
				netMs := max(0, fl.wallMs-execMs)
				sp.SetAttr("worker_id", fl.w.id)
				sp.SetAttr("queue_ms", strconv.FormatInt(queueMs, 10))
				sp.SetAttr("exec_ms", strconv.FormatInt(execMs, 10))
				sp.SetAttr("net_ms", strconv.FormatInt(netMs, 10))
				tel.Events.FoldSpans(sp, trace, fl.resp.Spans)
				tel.TraceWorkerSpans.Add(int64(len(fl.resp.Spans)))
				done = obs.ShardStatus{
					ID: hex64(t.id), Worker: fl.w.id, State: "done",
					Runs:    len(t.indices),
					WallMs:  time.Since(start).Milliseconds(),
					QueueMs: queueMs, ExecMs: execMs, NetMs: netMs,
				}
			}
			return payloads, done, err
		case <-stragglerC:
			stragglerC = nil
			if dup, ok := reg.tryAcquire(); ok {
				inflight++
				reg.logf("shard %s unanswered after %s; re-dispatching to %s", hex64(t.id), reg.tier.straggler, dup.id)
				if tel != nil {
					tel.FleetStragglers.Inc()
					tel.Events.Emit("fleet.straggler", map[string]string{
						"shard": hex64(t.id), "worker": dup.id,
					})
					tel.Live.UpdateShard(obs.ShardStatus{
						ID: hex64(t.id), Worker: dup.id, State: "retrying",
						Runs: len(t.indices), QueueMs: queueMs,
					})
				}
				go send(dup)
			}
		case <-ctx.Done():
			drainFlights(reg, results, inflight)
			return nil, obs.ShardStatus{}, ctx.Err()
		}
	}
	return nil, obs.ShardStatus{}, lastErr
}

// drainFlights reaps abandoned duplicate dispatches in the background:
// their results are discarded (never stored), their connections
// released or destroyed by health.
func drainFlights(reg *registry, results chan flight, inflight int) {
	if inflight <= 0 {
		return
	}
	go func() {
		for i := 0; i < inflight; i++ {
			fl := <-results
			if fl.err != nil {
				reg.destroy(fl.w)
			} else {
				reg.release(fl.w)
			}
		}
	}()
}

// runShardInProcess is the degraded path: execute the shard's runs in
// this process (results land via job.Exec) and, when journaling,
// encode them for the checkpoint. Campaign errors are permanent. With
// telemetry on, it also returns the shard's final status.
func runShardInProcess(ctx context.Context, job campaign.PayloadJob, t task, journaling bool) ([]runPayload, obs.ShardStatus, error) {
	tel := obs.Active()
	var sp *obs.Span
	var start time.Time
	if tel != nil {
		start = time.Now()
		sp = obs.SpanFromContext(ctx).Child("dispatch.shard", map[string]string{
			"shard": hex64(t.id), "worker": "inproc",
			"runs": strconv.Itoa(len(t.indices)),
		})
		defer sp.End()
	}
	var payloads []runPayload
	for _, i := range t.indices {
		if err := ctx.Err(); err != nil {
			return nil, obs.ShardStatus{}, err
		}
		if err := job.Exec(i); err != nil {
			return nil, obs.ShardStatus{}, &permanentError{err}
		}
		if journaling {
			p, err := job.Encode(i)
			if err != nil {
				return nil, obs.ShardStatus{}, &permanentError{err}
			}
			payloads = append(payloads, runPayload{Index: i, Payload: p})
		}
	}
	var done obs.ShardStatus
	if tel != nil {
		wall := time.Since(start).Milliseconds()
		sp.SetAttr("exec_ms", strconv.FormatInt(wall, 10))
		done = obs.ShardStatus{
			ID: hex64(t.id), Worker: "inproc", State: "done",
			Runs: len(t.indices), WallMs: wall, ExecMs: wall,
		}
	}
	return payloads, done, nil
}

// verifyAndStore checks one shard response end to end — worker-side
// campaign error, integrity hash, index set — and stores its payloads.
// A campaign-level error comes back as a permanentError; any mismatch
// or decode failure is a retryable corruption.
func verifyAndStore(job campaign.PayloadJob, t task, resp response) ([]runPayload, error) {
	if resp.Error != "" {
		return nil, &permanentError{fmt.Errorf("worker reported: %s", resp.Error)}
	}
	var err error
	if resp.Hash != hex64(payloadHash(t.id, resp.Results)) {
		err = fmt.Errorf("integrity check failed for shard %s", hex64(t.id))
	} else {
		err = storeShard(job, t, resp.Results)
	}
	if err != nil {
		if tel := obs.Active(); tel != nil {
			tel.DispatchIntegrity.Inc()
			tel.Events.Emit("dispatch.integrity", map[string]string{"shard": hex64(t.id)})
		}
		return nil, fmt.Errorf("corrupted shard result (%w)", err)
	}
	return resp.Results, nil
}
