package dispatch

import (
	"context"
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/campaign"
	dnet "repro/internal/campaign/dispatch/net"
	"repro/internal/obs"
)

// DefaultHeartbeat is the worker-agent ping interval when a Fleet
// leaves Heartbeat zero. The coordinator declares a connection dead
// after three missed beats, so hang detection reacts within ~3×this
// while a genuinely slow shard (whose agent keeps pinging) gets the
// full shard deadline.
const DefaultHeartbeat = 2 * time.Second

// LookupFactory builds a campaign lookup from the spec a coordinator
// ships at handshake. Network agents start before any campaign exists,
// so — unlike subprocess workers, which read their spec from the
// environment — the factory runs once per connection, when the
// coordinator's netConfig frame arrives.
type LookupFactory func(ctx context.Context, spec string) (func(name string) (Worker, error), error)

// NetServeOptions tunes a networked worker agent.
type NetServeOptions struct {
	// TLS wraps the transport when non-nil (server config for ServeNet,
	// client config for DialAndServe).
	TLS *tls.Config
	// Tap, when non-nil, intercepts every frame — the chaos seam.
	Tap dnet.Tap
	// Log receives agent diagnostics (nil discards them).
	Log io.Writer
	// Ready, when non-nil, is called once with the bound listen address
	// (ServeNet only) — tests listen on ":0" and need the port.
	Ready func(addr net.Addr)
	// ReconnectBase and ReconnectCap shape DialAndServe's capped
	// reconnect backoff (zero selects the campaign package defaults).
	ReconnectBase, ReconnectCap time.Duration
}

func (o NetServeOptions) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// ServeNet runs a worker agent that listens on addr and serves shard
// requests on every accepted coordinator connection until ctx is
// canceled. Each connection handshakes independently (hello out,
// netConfig in, ack out) and builds its own campaign lookup from the
// spec the coordinator ships, so one long-lived agent can serve many
// campaigns — and many coordinators — in sequence.
func ServeNet(ctx context.Context, addr string, factory LookupFactory, o NetServeOptions) error {
	l, err := dnet.Listen(addr, o.TLS)
	if err != nil {
		return fmt.Errorf("dispatch: worker agent cannot listen on %s: %w", addr, err)
	}
	if o.Ready != nil {
		o.Ready(l.Addr())
	}
	o.logf("worker agent: serving shards on %s", l.Addr())
	context.AfterFunc(ctx, func() { l.Close() })
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		raw, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("dispatch: worker agent accept: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveNetConn(ctx, dnet.NewConn(raw, o.Tap, 0), factory, o)
		}()
	}
}

// DialAndServe runs a worker agent that registers with a coordinator
// at addr (the coordinator's -fleet listen endpoint) and serves shards
// over the dialed connection, reconnecting with capped backoff when
// the coordinator goes away. It returns when ctx is canceled.
func DialAndServe(ctx context.Context, addr string, factory LookupFactory, o NetServeOptions) error {
	seed := int64(os.Getpid())
	fails := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		c, err := dnet.Dial(ctx, addr, o.TLS, o.Tap, 0)
		if err == nil {
			o.logf("worker agent: registered with coordinator %s", addr)
			fails = 0
			serveNetConn(ctx, c, factory, o)
			if ctx.Err() == nil {
				o.logf("worker agent: coordinator %s went away; reconnecting", addr)
			}
			continue
		}
		if fails++; fails == 1 {
			o.logf("worker agent: cannot reach coordinator %s (%v); retrying with backoff", addr, err)
		}
		d := campaign.BackoffDelay(o.ReconnectBase, o.ReconnectCap, seed, 0, fails)
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// serveNetConn speaks the worker side of the shard protocol on one
// transport connection: hello, netConfig handshake with spec ack, an
// optional heartbeat ticker for the connection's lifetime, then the
// serve loop subprocess workers run over pipes. A canceled ctx closes
// the connection, which from the coordinator's side is
// indistinguishable from a killed worker — the recovery path the fleet
// tests exercise.
func serveNetConn(ctx context.Context, c *dnet.Conn, factory LookupFactory, o NetServeOptions) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer c.Close()
	context.AfterFunc(ctx, func() { c.Close() })

	if err := c.WriteFrame(hello{Proto: protoVersion, PID: os.Getpid(), Token: obs.ProcessToken()}); err != nil {
		return
	}
	var cfg netConfig
	if err := c.ReadFrame(&cfg); err != nil {
		if ctx.Err() == nil {
			o.logf("worker agent: handshake with %s failed: %v", c.RemoteAddr(), err)
		}
		return
	}
	if cfg.Trace != "" {
		// Announce the campaign trace id so a fleet's scattered agent
		// logs can be correlated by grep; per-shard tracing rides each
		// request frame.
		o.logf("worker agent: serving campaign trace %s for %s", cfg.Trace, c.RemoteAddr())
	}
	lookup, err := factory(ctx, cfg.Spec)
	ack := response{}
	if err != nil {
		ack.Error = fmt.Sprintf("building campaign lookup: %v", err)
		o.logf("worker agent: rejecting spec from %s: %v", c.RemoteAddr(), err)
	}
	if werr := c.WriteFrame(envelope{Resp: &ack}); werr != nil || err != nil {
		return
	}

	if cfg.HeartbeatMs > 0 {
		go func() {
			t := time.NewTicker(time.Duration(cfg.HeartbeatMs) * time.Millisecond)
			defer t.Stop()
			var seq uint64
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					seq++
					if err := c.WriteFrame(envelope{Ping: &pingFrame{Seq: seq}}); err != nil {
						// A dead coordinator connection: unblock the serve
						// loop so the agent can take the next coordinator.
						cancel()
						return
					}
				}
			}
		}()
	}

	if err := serveConn(ctx, c, lookup); err != nil && ctx.Err() == nil {
		o.logf("worker agent: connection to %s lost: %v", c.RemoteAddr(), err)
	}
}
