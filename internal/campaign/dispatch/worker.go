package dispatch

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/campaign"
	dnet "repro/internal/campaign/dispatch/net"
	"repro/internal/obs"
)

// Worker is the worker-process view of one campaign: enough to verify
// the parent and worker agree on the plan and to execute single runs
// into encoded payloads. Adapt builds one from any wire-capable
// campaign.
type Worker interface {
	// Name is the campaign's name.
	Name() string
	// Plan reports the plan length and campaign.PlanHash fingerprint.
	Plan() (n int, hash uint64, err error)
	// ExecuteEncoded performs run i and returns its encoded result.
	ExecuteEncoded(ctx context.Context, i int) ([]byte, error)
}

// adapter implements Worker over a generic campaign, building the plan
// lazily on first use and memoizing it for every subsequent shard.
type adapter[Run, Result, Out any] struct {
	c    campaign.Campaign[Run, Result, Out]
	wire campaign.Wire[Result]

	once    sync.Once
	plan    []Run
	hash    uint64
	planErr error
}

// Adapt wraps a campaign for worker-side serving. The campaign must
// implement campaign.Wire for its result type (embed
// campaign.JSONWire[Result]); Adapt fails fast otherwise.
func Adapt[Run, Result, Out any](c campaign.Campaign[Run, Result, Out]) (Worker, error) {
	w, ok := any(c).(campaign.Wire[Result])
	if !ok {
		return nil, fmt.Errorf("dispatch: campaign %s has no wire codec", c.Name())
	}
	return &adapter[Run, Result, Out]{c: c, wire: w}, nil
}

func (a *adapter[Run, Result, Out]) Name() string { return a.c.Name() }

func (a *adapter[Run, Result, Out]) resolve() {
	a.once.Do(func() {
		plan, err := a.c.Plan()
		if err != nil {
			a.planErr = fmt.Errorf("%s: plan: %w", a.c.Name(), err)
			return
		}
		a.plan = plan
		var keys []uint64
		if s, ok := any(a.c).(campaign.Sharder[Run]); ok {
			keys = make([]uint64, len(plan))
			for i, r := range plan {
				keys[i] = s.ShardKey(r, i)
			}
		}
		a.hash = campaign.PlanHash(a.c.Name(), len(plan), keys)
	})
}

func (a *adapter[Run, Result, Out]) Plan() (int, uint64, error) {
	a.resolve()
	return len(a.plan), a.hash, a.planErr
}

func (a *adapter[Run, Result, Out]) ExecuteEncoded(ctx context.Context, i int) (payload []byte, err error) {
	a.resolve()
	if a.planErr != nil {
		return nil, a.planErr
	}
	if i < 0 || i >= len(a.plan) {
		return nil, fmt.Errorf("%s: run %d outside plan of %d", a.c.Name(), i, len(a.plan))
	}
	// Recover panics into an error naming the run, like the engine
	// does: the parent then aborts with a real diagnostic instead of
	// retrying a deterministic crash until the budget is gone.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: run %d panicked: %v\n%s", a.c.Name(), i, r, debug.Stack())
		}
	}()
	var start time.Time
	tel := obs.Active()
	if tel != nil {
		start = time.Now()
	}
	res, err := a.c.Execute(ctx, a.plan[i], i)
	if tel != nil {
		tel.RunDur.ObserveSince(start)
		// Worker-side run counts live under their own family; the
		// parent owns repro_campaign_runs_done_total (one increment per
		// landed result), so merging these can never double count.
		tel.Reg.Counter("repro_worker_runs_total", obs.L("campaign", a.c.Name())).Inc()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: run %d: %w", a.c.Name(), i, err)
	}
	return a.wire.EncodeResult(res)
}

// Serve runs the worker side of the shard protocol over r/w until r
// reaches EOF (the parent closing the worker's stdin is the shutdown
// signal): announce ourselves with a hello frame, then answer each
// shard request with the shard's encoded results and integrity hash.
// lookup resolves a campaign name to its Worker; resolutions are
// memoized, so a process serving many shards of one campaign builds
// its plan (and reference state such as golden runs) once.
func Serve(ctx context.Context, lookup func(name string) (Worker, error), r io.Reader, w io.Writer) error {
	c := dnet.NewConn(dnet.Pipe(r, w), nil, 0)
	if err := c.WriteFrame(hello{Proto: protoVersion, PID: os.Getpid(), Token: obs.ProcessToken()}); err != nil {
		return err
	}
	return serveConn(ctx, c, lookup)
}

// serveConn is the one worker serve loop, over pipes and sockets
// alike: read a shard request, execute it, ship the telemetry it moved,
// then its response — until the coordinator closes its side (nil) or
// the connection fails.
func serveConn(ctx context.Context, c *dnet.Conn, lookup func(name string) (Worker, error)) error {
	workers := make(map[string]Worker)
	var deltas obs.DeltaTracker
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var req request
		switch err := c.ReadFrame(&req); {
		case err == io.EOF:
			return nil
		case err != nil:
			return err
		}
		resp := serveShard(ctx, workers, lookup, req)
		// A worker stopped mid-shard answers nothing, exactly like a
		// killed one: the coordinator re-dispatches the shard.
		if err := ctx.Err(); err != nil {
			return err
		}
		// Ship this shard's telemetry movement ahead of its response:
		// once the coordinator has the response it may declare the
		// campaign done, so the counts must already be merged by then.
		if tel := obs.Active(); tel != nil {
			if moved := deltas.Delta(tel.Reg); len(moved) > 0 {
				if err := c.WriteFrame(envelope{Metrics: moved}); err != nil {
					return err
				}
			}
		}
		if err := c.WriteFrame(envelope{Resp: &resp}); err != nil {
			return err
		}
	}
}

// serveShard executes one shard request; failures become the
// response's Error field rather than killing the serve loop. When the
// request carries a trace id, the worker records its spans (shard root,
// plan resolution, run execution with golden-cache attribution) into a
// TraceRecorder and ships them on the response, where the parent folds
// them into the campaign trace. Recording is observational only: it
// touches nothing the integrity hash covers.
func serveShard(ctx context.Context, workers map[string]Worker, lookup func(string) (Worker, error), req request) (resp response) {
	resp = response{Seq: req.Seq, Shard: req.Shard}
	var rec *obs.TraceRecorder
	var shardSpan *obs.RecSpan
	if req.Trace != "" {
		rec = obs.NewTraceRecorder()
		shardSpan = rec.Start("worker.shard", 0, map[string]string{
			"campaign": req.Campaign,
			"shard":    req.Shard,
			"runs":     fmt.Sprintf("%d", len(req.Indices)),
		})
		// resp is a named result: the deferred drain runs after every
		// return below, so error responses carry their spans too.
		defer func() { shardSpan.End(); resp.Spans = rec.Drain() }()
	}
	wk, ok := workers[req.Campaign]
	if !ok {
		var err error
		if wk, err = lookup(req.Campaign); err != nil {
			resp.Error = fmt.Sprintf("unknown campaign %q: %v", req.Campaign, err)
			return resp
		}
		workers[req.Campaign] = wk
	}
	planSpan := rec.Start("worker.plan", shardSpan.ID(), nil)
	n, hash, err := wk.Plan()
	planSpan.End()
	if err != nil {
		resp.Error = err.Error()
		return resp
	}
	if got := hex64(hash); got != req.PlanHash {
		resp.Error = fmt.Sprintf("plan mismatch for %s: worker %s, parent %s (n=%d) — parent and worker disagree on campaign identity",
			req.Campaign, got, req.PlanHash, n)
		return resp
	}
	tel := obs.Active()
	execSpan := rec.Start("worker.exec", shardSpan.ID(), nil)
	var preHits int64
	if tel != nil {
		preHits = tel.GoldenHits.Value()
	}
	results := make([]runPayload, 0, len(req.Indices))
	for _, i := range req.Indices {
		payload, err := wk.ExecuteEncoded(ctx, i)
		if err != nil {
			execSpan.End()
			resp.Error = err.Error()
			return resp
		}
		results = append(results, runPayload{Index: i, Payload: payload})
	}
	if execSpan != nil {
		execSpan.SetAttr("runs", fmt.Sprintf("%d", len(results)))
		if tel != nil {
			execSpan.SetAttr("golden_hits", fmt.Sprintf("%d", tel.GoldenHits.Value()-preHits))
		}
	}
	execSpan.End()
	resp.Results = results
	resp.Hash = hex64(payloadHash(parseHex64(req.Shard), results))
	return resp
}
