package dispatch

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	dnet "repro/internal/campaign/dispatch/net"
	"repro/internal/obs"
)

// errNoWorkers reports that the registry stayed empty past its
// patience: the shard runs in-process instead.
var errNoWorkers = errors.New("no live workers")

// errClosed reports a connection opened after its registry closed.
var errClosed = errors.New("registry closed")

// conn is one worker connection — a spawned child over its pipes or a
// network agent over TCP/TLS — plus its frame reader. Both speak the
// same proto-v2 frames through a dnet.Conn.
type conn struct {
	id    string // "pid:N" for a spawned child, the endpoint for an agent
	pid   int
	token string
	fc    *dnet.Conn
	proc  *exec.Cmd // the spawned child; nil for network agents

	frames chan response
	done   chan struct{}
	err    error
	killed atomic.Bool
}

// newConn wraps a fresh transport. A connection carries at most one
// request at a time, so one buffered response is all the reader needs.
func newConn(id string, fc *dnet.Conn, proc *exec.Cmd) *conn {
	return &conn{id: id, fc: fc, proc: proc, frames: make(chan response, 1), done: make(chan struct{})}
}

// workerID names a spawned worker in live views and span attributes.
func workerID(pid int) string { return fmt.Sprintf("pid:%d", pid) }

// handshake completes the coordinator side of a fresh connection: the
// worker's hello in and, when cfg is set (network agents), the
// campaign spec out and its ack in. helloTimeout bounds the exchange.
func (c *conn) handshake(cfg *netConfig) (err error) {
	timer := time.AfterFunc(helloTimeout, c.stop)
	defer func() {
		if !timer.Stop() && err != nil {
			err = fmt.Errorf("worker did not complete its handshake within %s", helloTimeout)
		}
	}()
	var h hello
	if err := c.fc.ReadFrame(&h); err != nil {
		return fmt.Errorf("reading hello: %w", err)
	}
	if h.Proto != protoVersion {
		return fmt.Errorf("worker speaks protocol %d, want %d", h.Proto, protoVersion)
	}
	c.pid, c.token = h.PID, h.Token
	if cfg == nil {
		return nil
	}
	if err := c.fc.WriteFrame(cfg); err != nil {
		return fmt.Errorf("sending spec: %w", err)
	}
	for {
		var env envelope
		if err := c.fc.ReadFrame(&env); err != nil {
			return fmt.Errorf("reading spec ack: %w", err)
		}
		if env.Resp == nil {
			continue // tolerate early pings
		}
		if env.Resp.Error != "" {
			return fmt.Errorf("worker rejected spec: %s", env.Resp.Error)
		}
		return nil
	}
}

// read drains the connection: telemetry deltas are merged as they
// arrive, responses delivered to the waiting round trip, pings
// consumed (on sockets each frame refreshes the read deadline, which
// is the liveness check). Any read error — EOF from a crash, garbage
// framing, a missed-heartbeat deadline — ends the loop; c.err keeps
// the cause.
func (c *conn) read() {
	defer close(c.done)
	for {
		var env envelope
		if err := c.fc.ReadFrame(&env); err != nil {
			if err != io.EOF {
				c.err = err
			}
			return
		}
		// Workers send a shard's telemetry ahead of its response. Skip
		// the merge for a worker that shares this process (its hello
		// carried our own token): its movement already landed in our
		// registry, and merging it again would double count.
		if env.Metrics != nil && c.token != obs.ProcessToken() {
			if tel := obs.Active(); tel != nil {
				tel.Reg.Merge(env.Metrics)
			}
		}
		if env.Resp != nil {
			select {
			case c.frames <- *env.Resp:
			default:
				// A stale response from an abandoned round trip. Drop it —
				// a connection is destroyed after any failed round trip,
				// so this cannot starve a live request.
			}
		}
	}
}

// roundTrip sends one shard request and waits for its response within
// the deadline. A worker that dies mid-shard surfaces via c.done (EOF,
// or a missed-heartbeat deadline on sockets); one that hangs surfaces
// as the deadline overrun. Either way the caller destroys the
// connection. A spawned child "crashed"; an agent's connection was
// "lost" — the wording operators grep for.
func (c *conn) roundTrip(ctx context.Context, req request, deadline time.Duration) (response, error) {
	who, lost := "worker "+c.id, "connection lost"
	if c.proc != nil {
		who, lost = "worker", "crashed"
	}
	if err := c.fc.WriteFrame(req); err != nil {
		return response{}, fmt.Errorf("%s %s (request write failed: %v)", who, lost, err)
	}
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case resp := <-c.frames:
		if resp.Seq != req.Seq || resp.Shard != req.Shard {
			return response{}, fmt.Errorf("corrupted shard result (response for seq %d shard %s, want seq %d shard %s)",
				resp.Seq, resp.Shard, req.Seq, req.Shard)
		}
		return resp, nil
	case <-c.done:
		return response{}, fmt.Errorf("%s %s mid-shard (%s)", who, lost, errString(c.err))
	case <-timer.C:
		return response{}, fmt.Errorf("%s hung (no response within %s)", who, deadline)
	case <-ctx.Done():
		return response{}, ctx.Err()
	}
}

// stop tears the transport down from any goroutine, unblocking every
// pending read: it closes the stream (a healthy child exits on stdin
// EOF) and kills a spawned child.
func (c *conn) stop() {
	c.fc.Close()
	if c.proc != nil && c.killed.CompareAndSwap(false, true) {
		if tel := obs.Active(); tel != nil {
			tel.WorkerKills.Inc()
		}
		c.proc.Process.Kill()
	}
}

// close stops the connection and reaps a spawned child. The reader, if
// it ran, has already finished.
func (c *conn) close() {
	c.stop()
	if c.proc != nil {
		c.proc.Wait()
	}
}

func errString(err error) string {
	if err == nil {
		return "connection closed"
	}
	return err.Error()
}

// opener makes one fresh connection for a registry: a dial-out or a
// spawn. String names the endpoint in logs and keys its reconnect
// jitter.
type opener interface {
	open(ctx context.Context) (*conn, error)
	String() string
}

// spawner is the spawn connector: it re-execs a worker child and
// frames its stdin/stdout.
type spawner struct {
	argv, env []string
	stderr    io.Writer
}

func (s spawner) String() string { return s.argv[0] }

func (s spawner) open(context.Context) (*conn, error) {
	cmd := exec.Command(s.argv[0], s.argv[1:]...)
	cmd.Env = append(os.Environ(), s.env...)
	cmd.Stderr = s.stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting worker %q: %w", s.argv[0], err)
	}
	return newConn(workerID(cmd.Process.Pid), dnet.NewConn(dnet.Pipe(stdout, stdin), nil, 0), cmd), nil
}

// dialer is the dial-out connector for one agent address.
type dialer struct {
	addr      string
	tls       *tls.Config
	tap       dnet.Tap
	deadAfter time.Duration
}

func (d dialer) String() string { return d.addr }

func (d dialer) open(ctx context.Context) (*conn, error) {
	fc, err := dnet.Dial(ctx, d.addr, d.tls, d.tap, d.deadAfter)
	if err != nil {
		return nil, err
	}
	return newConn(d.addr, fc, nil), nil
}

// registry is the coordinator's pool of framed worker connections for
// one tier. Connectors feed it; shard slots take idle connections with
// acquire and hand them back with release (healthy) or destroy
// (suspect). Every connection it tracks — mid-handshake included — is
// stopped when the registry closes.
type registry struct {
	co     *coordinator
	tier   tier
	slots  int
	cancel context.CancelFunc
	wg     sync.WaitGroup
	notify chan struct{}
	// grow, when set, opens one more connection on demand; called under
	// mu by an acquire that found nothing idle.
	grow func()

	mu     sync.Mutex
	idle   []*conn
	all    map[*conn]bool // tracked connections; true once joined
	live   int
	closed bool
	// opening counts dial-outs still on their first attempt.
	opening int
}

func (r *registry) logf(format string, args ...any) {
	prefix := "dispatch: "
	if r.tier.net != nil {
		prefix = "fleet: "
	}
	r.co.logf(prefix+format, args...)
}

func (r *registry) wake() {
	select {
	case r.notify <- struct{}{}:
	default:
	}
}

// open makes one connection from o and admits it.
func (r *registry) open(ctx context.Context, o opener) (*conn, error) {
	c, err := o.open(ctx)
	if err == nil {
		err = r.admit(c)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// admit handshakes a fresh connection, or closes it. The registry
// tracks the connection before the first byte is read, so closing the
// registry unblocks a handshake in progress.
func (r *registry) admit(c *conn) error {
	r.mu.Lock()
	closed := r.closed
	if !closed {
		r.all[c] = false
	}
	r.mu.Unlock()
	err := errClosed
	if !closed {
		err = c.handshake(r.tier.net)
	}
	if err != nil {
		r.remove(c)
		c.close()
	}
	return err
}

// serve runs one handshaken connection until it dies: start its
// reader, put it in the rotation, wait, take it out, reap it.
func (r *registry) serve(ctx context.Context, c *conn) {
	go c.read()
	r.mu.Lock()
	joined := !r.closed
	if joined {
		r.all[c] = true
		r.idle = append(r.idle, c)
		r.live++
	}
	live := r.live
	r.mu.Unlock()
	if !joined {
		c.close()
		return
	}
	if tel := obs.Active(); tel != nil {
		if r.tier.net != nil {
			tel.FleetWorkers.Set(int64(live))
			tel.FleetRegistrations.Inc()
			tel.Events.Emit("fleet.join", map[string]string{"worker": c.id, "pid": strconv.Itoa(c.pid)})
		} else {
			tel.WorkerSpawns.Inc()
			tel.Events.Emit("dispatch.spawn", map[string]string{"pid": strconv.Itoa(c.pid)})
		}
		tel.Live.WorkerJoin(c.id, c.pid)
	}
	r.wake()
	<-c.done
	r.remove(c)
	c.close()
	// Network losses are news; a spawned child's death already shows in
	// the shard's retry diagnostic.
	if ctx.Err() == nil && r.tier.net != nil {
		r.logf("lost worker %s (%s)", c.id, errString(c.err))
	}
}

// remove forgets a connection.
func (r *registry) remove(c *conn) {
	r.mu.Lock()
	joined := r.all[c]
	delete(r.all, c)
	if joined {
		r.idle = slices.DeleteFunc(r.idle, func(ic *conn) bool { return ic == c })
		r.live--
	}
	live := r.live
	r.mu.Unlock()
	if tel := obs.Active(); tel != nil && joined {
		if r.tier.net != nil {
			tel.FleetWorkers.Set(int64(live))
		}
		tel.Live.WorkerLost(c.id)
	}
	r.wake()
}

// keep holds one connection from o up for as long as the registry
// runs: open and handshake, serve until the connection dies, reopen —
// at once after a served session, with capped backoff after a failure.
// c, when non-nil, is an already handshaken first connection.
// Reconnects after a served session are the fleet surviving a lost
// worker, and are counted.
func (r *registry) keep(ctx context.Context, o opener, c *conn) {
	defer r.wg.Done()
	served, fails := false, 0
	for ctx.Err() == nil {
		if c == nil {
			var err error
			c, err = r.open(ctx, o)
			if !served && fails == 0 && r.tier.net != nil {
				r.mu.Lock()
				r.opening--
				r.mu.Unlock()
				r.wake()
			}
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				if fails++; fails == 1 {
					r.logf("worker %s unavailable (%v); retrying with backoff", o, err)
				}
				select {
				case <-time.After(campaign.BackoffDelay(r.co.sched.BackoffBase, r.co.sched.BackoffCap, r.co.sched.Seed, fnvString(o.String()), fails)):
				case <-ctx.Done():
					return
				}
				continue
			}
		}
		fails = 0
		if r.tier.net != nil {
			if served {
				r.logf("reconnected to worker %s (pid %d)", o, c.pid)
				if tel := obs.Active(); tel != nil {
					tel.FleetReconnects.Inc()
					tel.Events.Emit("fleet.reconnect", map[string]string{"worker": o.String()})
				}
			} else {
				r.logf("worker %s joined (pid %d)", o, c.pid)
			}
		}
		served = true
		r.serve(ctx, c)
		c = nil
	}
}

// accept is the accept-in connector: it admits agent registrations
// for as long as the registry runs. A registered worker that drops is
// forgotten — re-registration is the agent's job.
func (r *registry) accept(ctx context.Context, l net.Listener, tap dnet.Tap, deadAfter time.Duration) {
	defer r.wg.Done()
	for n := 1; ; n++ {
		raw, err := l.Accept()
		if err != nil {
			return // listener closed on shutdown
		}
		c := newConn(fmt.Sprintf("%s#%d", raw.RemoteAddr(), n), dnet.NewConn(raw, tap, deadAfter), nil)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			if err := r.admit(c); err != nil {
				if ctx.Err() == nil {
					r.logf("registration from %s failed: %v", c.id, err)
				}
				return
			}
			r.logf("worker %s registered (pid %d)", c.id, c.pid)
			r.serve(ctx, c)
		}()
	}
}

// tryAcquire pops an idle live connection without waiting.
func (r *registry) tryAcquire() (*conn, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for n := len(r.idle); n > 0; n = len(r.idle) {
		c := r.idle[n-1]
		r.idle = r.idle[:n-1]
		if !c.dead() {
			return c, true
		}
	}
	return nil, false
}

// acquire blocks until an idle connection is available, asking the
// connectors for one more on the way. Busy connections are waited on
// indefinitely (they release when their shard settles), and so are
// connections still in handshake; but if the registry stays completely
// empty for maxEmpty the caller gets errNoWorkers and runs the shard
// locally.
func (r *registry) acquire(ctx context.Context, maxEmpty time.Duration) (*conn, error) {
	grown := false
	emptyDeadline := time.Now().Add(maxEmpty)
	for {
		if c, ok := r.tryAcquire(); ok {
			return c, nil
		}
		r.mu.Lock()
		if !grown && r.grow != nil && !r.closed {
			r.grow()
		}
		grown = true
		empty := len(r.all) == 0
		r.mu.Unlock()
		if !empty {
			emptyDeadline = time.Now().Add(maxEmpty)
		} else if time.Now().After(emptyDeadline) {
			return nil, errNoWorkers
		}
		select {
		case <-r.notify:
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// release returns a healthy connection to the rotation.
func (r *registry) release(c *conn) {
	r.mu.Lock()
	// A dead connection's connector is already accounting for the death.
	if !r.closed && !c.dead() {
		r.idle = append(r.idle, c)
	}
	r.mu.Unlock()
	r.wake()
}

// destroy drops a suspect connection hard; its connector opens a fresh
// one. (A spawned child's kill is counted when it is stopped.)
func (r *registry) destroy(c *conn) {
	if tel := obs.Active(); tel != nil && c.proc == nil {
		tel.WorkerKills.Inc()
	}
	c.stop()
}

// dead reports whether the connection's reader has ended.
func (c *conn) dead() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// waitReady blocks until at least one worker has joined and every
// dial-out has made its first attempt (so the first shards spread over
// every reachable agent), the wait budget is spent, or ctx ends. It
// reports whether the tier is usable.
func (r *registry) waitReady(ctx context.Context, wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	for {
		r.mu.Lock()
		live, opening := r.live, r.opening
		r.mu.Unlock()
		remain := time.Until(deadline)
		if live > 0 && (opening == 0 || remain <= 0) {
			return true
		}
		if remain <= 0 {
			return false
		}
		select {
		case <-r.notify:
		case <-time.After(min(remain, 20*time.Millisecond)):
		case <-ctx.Done():
			return false
		}
	}
}

// close tears the registry down: stops its connectors, stops every
// tracked connection (mid-handshake ones included), and waits for the
// connector goroutines to end.
func (r *registry) close() {
	r.mu.Lock()
	r.closed = true
	conns := make([]*conn, 0, len(r.all))
	for c := range r.all {
		conns = append(conns, c)
	}
	r.mu.Unlock()
	r.cancel()
	for _, c := range conns {
		c.stop()
	}
	r.wg.Wait()
	if tel := obs.Active(); tel != nil && r.tier.net != nil {
		tel.FleetWorkers.Set(0)
	}
}

func fnvString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
