package dispatch

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	dnet "repro/internal/campaign/dispatch/net"
)

// The fleet tests run worker agents in-process (goroutines serving the
// real TCP transport) rather than as subprocesses: network failure
// modes are injected by closing connections, corrupting frames via a
// dnet tap, or going silent — all indistinguishable on the wire from a
// killed or partitioned remote worker.

// cubesSpec encodes the test campaign's parameters for the netConfig
// handshake, standing in for the experiment layer's WorkerSpec JSON.
func cubesSpec(n, failAt int) string { return fmt.Sprintf("%d %d", n, failAt) }

// cubesFactory is the agents' LookupFactory; hook (when non-nil) runs
// before every shard-run execution, with the serve context.
func cubesFactory(hook func(ctx context.Context, i int)) LookupFactory {
	return func(_ context.Context, spec string) (func(string) (Worker, error), error) {
		var n, failAt int
		if _, err := fmt.Sscanf(spec, "%d %d", &n, &failAt); err != nil {
			return nil, fmt.Errorf("bad cubes spec %q: %v", spec, err)
		}
		return func(name string) (Worker, error) {
			if name != "cubes" {
				return nil, fmt.Errorf("test agent only serves cubes, not %q", name)
			}
			w, err := Adapt[int, int, string](cubes{n: n, failAt: failAt})
			if err != nil {
				return nil, err
			}
			return hookedWorker{Worker: w, hook: hook}, nil
		}, nil
	}
}

// hookedWorker runs the test's fault hook before each shard run.
type hookedWorker struct {
	Worker
	hook func(ctx context.Context, i int)
}

func (h hookedWorker) ExecuteEncoded(ctx context.Context, i int) ([]byte, error) {
	if h.hook != nil {
		h.hook(ctx, i)
	}
	return h.Worker.ExecuteEncoded(ctx, i)
}

// startAgent runs an in-process ServeNet worker agent and returns its
// dial address plus the cancel that kills it (closing its connections,
// which on the coordinator side looks exactly like a SIGKILLed remote
// worker).
func startAgent(t *testing.T, factory LookupFactory, tap dnet.Tap) (addr string, kill context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan net.Addr, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ServeNet(ctx, "127.0.0.1:0", factory, NetServeOptions{
			Tap:   tap,
			Ready: func(a net.Addr) { addrCh <- a },
		})
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("agent did not shut down")
		}
	})
	select {
	case a := <-addrCh:
		return a.String(), cancel
	case <-time.After(5 * time.Second):
		t.Fatal("agent did not start")
		return "", nil
	}
}

// testFleet builds a Fleet against the given agents with test-speed
// timeouts.
func testFleet(n int, addrs ...string) *Fleet {
	return &Fleet{
		Subprocess: Subprocess{
			Workers:      2,
			Shards:       8,
			ShardTimeout: 30 * time.Second,
			BackoffBase:  time.Millisecond,
			BackoffCap:   4 * time.Millisecond,
		},
		Addrs:       addrs,
		Spec:        cubesSpec(n, -1),
		Heartbeat:   200 * time.Millisecond,
		ConnectWait: 10 * time.Second,
	}
}

// TestFleetMatchesSerial pins the headline claim: the same campaign
// dispatched across a networked fleet at several worker and shard
// widths reduces byte-identically to the serial run.
func TestFleetMatchesSerial(t *testing.T) {
	const n = 24
	want := serialBaseline(t, n)
	a1, _ := startAgent(t, cubesFactory(nil), nil)
	a2, _ := startAgent(t, cubesFactory(nil), nil)
	for _, workers := range []int{1, 2, 4} {
		for _, shards := range []int{1, 2, 8} {
			f := testFleet(n, a1, a2)
			f.Workers, f.Shards = workers, shards
			got, err := campaign.Execute[int, int, string](context.Background(), newCubes(n), f, nil)
			if err != nil {
				t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
			}
			if got != want {
				t.Errorf("workers=%d shards=%d: output diverged from serial\n got %s\nwant %s", workers, shards, got, want)
			}
		}
	}
}

// TestFleetSurvivesKilledWorker kills one of two agents the moment it
// starts executing its first shard: its connections drop mid-flight,
// the coordinator destroys the worker and the retry lands the shard on
// the survivor. Output stays byte-identical to serial.
func TestFleetSurvivesKilledWorker(t *testing.T) {
	const n = 24
	var (
		once  sync.Once
		kill1 context.CancelFunc
	)
	killer := cubesFactory(func(ctx context.Context, i int) {
		once.Do(func() {
			kill1()
			<-ctx.Done() // the dying agent never answers this shard
		})
	})
	a1, k1 := startAgent(t, killer, nil)
	kill1 = k1
	a2, _ := startAgent(t, cubesFactory(nil), nil)

	var log bytes.Buffer
	f := testFleet(n, a1, a2)
	f.Retries, f.Log = 3, &log
	got, err := campaign.Execute[int, int, string](context.Background(), newCubes(n), f, nil)
	if err != nil {
		t.Fatalf("campaign did not survive the killed worker: %v\nlog:\n%s", err, log.String())
	}
	if want := serialBaseline(t, n); got != want {
		t.Errorf("output diverged from serial after worker death\n got %s\nwant %s", got, want)
	}
	logs := log.String()
	if !strings.Contains(logs, "lost worker") && !strings.Contains(logs, "connection lost") {
		t.Errorf("log does not diagnose the lost worker:\n%s", logs)
	}
}

// scriptedTap injects faults at fixed per-connection frame ordinals in
// one direction — deterministic chaos without probability bands.
type scriptedTap struct {
	dir    dnet.Direction
	script map[uint64]dnet.Action
	mu     sync.Mutex
	fired  int
	budget int
}

func (s *scriptedTap) Frame(dir dnet.Direction, ordinal uint64) dnet.Action {
	if dir != s.dir {
		return dnet.Action{}
	}
	act, ok := s.script[ordinal]
	if !ok {
		return dnet.Action{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fired >= s.budget {
		return dnet.Action{}
	}
	s.fired++
	return act
}

// TestFleetSurvivesCorruptedFrames wears a corrupting tap on the
// coordinator side: a shard response frame is mangled in transit, the
// decode fails, the worker is destroyed and re-dialed, and the shard
// retries — output still byte-identical to serial. Corruption is
// capped so the chaos provably runs dry within the retry budget.
func TestFleetSurvivesCorruptedFrames(t *testing.T) {
	const n = 24
	a1, _ := startAgent(t, cubesFactory(nil), nil)
	a2, _ := startAgent(t, cubesFactory(nil), nil)

	// Coordinator recv ordinals per connection: 0 hello, 1 spec ack,
	// then shard responses. Corrupt the first shard response frame on
	// whichever connection gets there first; budget 2 total.
	tap := &scriptedTap{dir: dnet.Recv, script: map[uint64]dnet.Action{2: {Corrupt: true}}, budget: 2}
	var log bytes.Buffer
	f := testFleet(n, a1, a2)
	f.Tap, f.Retries, f.Log = tap, 3, &log

	got, err := campaign.Execute[int, int, string](context.Background(), newCubes(n), f, nil)
	if err != nil {
		t.Fatalf("campaign did not survive frame corruption: %v\nlog:\n%s", err, log.String())
	}
	if want := serialBaseline(t, n); got != want {
		t.Errorf("output diverged from serial under frame corruption\n got %s\nwant %s", got, want)
	}
	if tap.fired == 0 {
		t.Error("tap never fired; the test exercised nothing")
	}
	if !strings.Contains(log.String(), "lost worker") {
		t.Errorf("log does not record the destroyed connection:\n%s", log.String())
	}
}

// TestFleetHeartbeatDetectsSilentPeer pins dead-peer detection: a fake
// worker completes the handshake and then goes silent — no pings, no
// response. The coordinator's read deadline (3 missed beats) reaps it
// long before the shard deadline, and the shard retries on the real
// agent. The real agent holds its runs until the silent peer has read
// a shard request; otherwise it could drain every shard first and the
// campaign would never wait on the silent peer.
func TestFleetHeartbeatDetectsSilentPeer(t *testing.T) {
	const n = 24
	silent, holdsShard := startSilentWorker(t)
	good, _ := startAgent(t, cubesFactory(func(ctx context.Context, _ int) {
		select {
		case <-holdsShard:
		case <-ctx.Done():
		}
	}), nil)

	var log bytes.Buffer
	f := testFleet(n, silent, good)
	f.Heartbeat = 100 * time.Millisecond
	f.ShardTimeout = 30 * time.Second // only heartbeats can reap the silent peer quickly
	f.StragglerAfter = -1             // isolate heartbeat detection from straggler re-dispatch
	f.Retries, f.Log = 3, &log

	start := time.Now()
	got, err := campaign.Execute[int, int, string](context.Background(), newCubes(n), f, nil)
	if err != nil {
		t.Fatalf("campaign did not survive the silent worker: %v\nlog:\n%s", err, log.String())
	}
	if want := serialBaseline(t, n); got != want {
		t.Errorf("output diverged from serial with a silent worker\n got %s\nwant %s", got, want)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Errorf("campaign took %s; heartbeat detection should beat the 30s shard deadline", elapsed)
	}
	if !strings.Contains(log.String(), "missed heartbeats") {
		t.Errorf("log does not attribute the loss to missed heartbeats:\n%s", log.String())
	}
}

// startSilentWorker serves one connection: a correct handshake, then
// silence. It stops listening after the first accept so the
// coordinator's re-dial cannot resurrect it. The returned channel is
// closed once the worker has read its first shard request.
func startSilentWorker(t *testing.T) (string, <-chan struct{}) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	holdsShard := make(chan struct{})
	go func() {
		raw, err := l.Accept()
		if err != nil {
			return
		}
		l.Close()
		defer raw.Close()
		c := dnet.NewConn(raw, nil, 0)
		if err := c.WriteFrame(hello{Proto: protoVersion, PID: os.Getpid()}); err != nil {
			return
		}
		var cfg netConfig
		if err := c.ReadFrame(&cfg); err != nil {
			return
		}
		if err := c.WriteFrame(envelope{Resp: &response{}}); err != nil {
			return
		}
		// Silence: swallow requests, send nothing — not even pings.
		var once sync.Once
		for {
			var req request
			if err := c.ReadFrame(&req); err != nil {
				return
			}
			once.Do(func() { close(holdsShard) })
		}
	}()
	return l.Addr().String(), holdsShard
}

// TestFleetStragglerRedispatch pins the straggler policy: one agent
// sits on its first shard far past StragglerAfter (while its heartbeats
// keep the connection alive), a duplicate dispatch lands on the second
// agent, and the first valid result wins. The campaign never waits for
// the full shard deadline and output stays byte-identical to serial.
func TestFleetStragglerRedispatch(t *testing.T) {
	const n = 24
	var once sync.Once
	slow := cubesFactory(func(ctx context.Context, i int) {
		once.Do(func() {
			select {
			case <-time.After(20 * time.Second):
			case <-ctx.Done():
			}
		})
	})
	a1, _ := startAgent(t, slow, nil)
	a2, _ := startAgent(t, cubesFactory(nil), nil)

	var log bytes.Buffer
	f := testFleet(n, a1, a2)
	f.ShardTimeout = 60 * time.Second
	f.StragglerAfter = 200 * time.Millisecond
	f.Log = &log

	start := time.Now()
	got, err := campaign.Execute[int, int, string](context.Background(), newCubes(n), f, nil)
	if err != nil {
		t.Fatalf("campaign did not route around the straggler: %v\nlog:\n%s", err, log.String())
	}
	if want := serialBaseline(t, n); got != want {
		t.Errorf("output diverged from serial with straggler re-dispatch\n got %s\nwant %s", got, want)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Errorf("campaign took %s; the duplicate dispatch should finish long before the straggler", elapsed)
	}
	if !strings.Contains(log.String(), "re-dispatching") {
		t.Errorf("log does not record the straggler re-dispatch:\n%s", log.String())
	}
}

// TestFleetDegradesWithoutWorkers pins the degradation ladder's bottom
// rung: no agent is reachable, so after ConnectWait the whole campaign
// falls back — here (no spawn Command) to in-process execution —
// and the output is still byte-identical to serial.
func TestFleetDegradesWithoutWorkers(t *testing.T) {
	const n = 16
	// A dead address: listen, then close, so nothing ever accepts.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	var log bytes.Buffer
	f := testFleet(n, dead)
	f.ConnectWait = 300 * time.Millisecond
	f.Log = &log
	got, err := campaign.Execute[int, int, string](context.Background(), newCubes(n), f, nil)
	if err != nil {
		t.Fatalf("degraded campaign failed: %v\nlog:\n%s", err, log.String())
	}
	if want := serialBaseline(t, n); got != want {
		t.Errorf("degraded output diverged from serial\n got %s\nwant %s", got, want)
	}
	if !strings.Contains(log.String(), "degrading") {
		t.Errorf("log does not record the degradation:\n%s", log.String())
	}
}

// TestFleetRegistrationMode exercises the -fleet-listen path: the
// coordinator accepts registrations, and DialAndServe agents join on
// their own. Output matches serial.
func TestFleetRegistrationMode(t *testing.T) {
	const n = 24
	// The coordinator needs a deterministic listen address before the
	// agents can dial it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			DialAndServe(ctx, addr, cubesFactory(nil), NetServeOptions{
				ReconnectBase: time.Millisecond, ReconnectCap: 10 * time.Millisecond,
			})
		}()
	}
	t.Cleanup(func() { cancel(); wg.Wait() })

	f := testFleet(n)
	f.Listen = addr
	got, err := campaign.Execute[int, int, string](context.Background(), newCubes(n), f, nil)
	if err != nil {
		t.Fatalf("registration-mode campaign failed: %v", err)
	}
	if want := serialBaseline(t, n); got != want {
		t.Errorf("registration-mode output diverged from serial\n got %s\nwant %s", got, want)
	}
}

// TestFleetResumesSubprocessJournal pins cross-transport resume: a
// campaign checkpointed under the subprocess dispatcher (failed
// partway by a deterministic run error) resumes under the Fleet with
// the same journal, byte-identical to serial. The journal format is
// keyed by campaign identity alone, so the transport can change
// between sessions.
func TestFleetResumesSubprocessJournal(t *testing.T) {
	const n = 24
	ckpt := filepath.Join(t.TempDir(), "cross.ckpt")

	// Session 1: subprocess dispatch, run 20 fails deterministically.
	s := subproc(t, n, envFailAt+"=20")
	s.Workers, s.Shards, s.Checkpoint = 2, 8, ckpt
	if _, err := campaign.Execute[int, int, string](context.Background(), cubes{n: n, failAt: 20}, s, nil); err == nil {
		t.Fatal("session 1 should have failed at run 20")
	}

	// Session 2: same campaign, same journal, fleet transport.
	a1, _ := startAgent(t, cubesFactory(nil), nil)
	var log bytes.Buffer
	f := testFleet(n, a1)
	f.Checkpoint, f.Log = ckpt, &log
	got, err := campaign.Execute[int, int, string](context.Background(), newCubes(n), f, nil)
	if err != nil {
		t.Fatalf("fleet resume failed: %v\nlog:\n%s", err, log.String())
	}
	if want := serialBaseline(t, n); got != want {
		t.Errorf("resumed output diverged from serial\n got %s\nwant %s", got, want)
	}
	if !strings.Contains(log.String(), "resumed") {
		t.Errorf("log does not record the journal replay:\n%s", log.String())
	}
}

// TestSubprocessResumesFleetJournal is the reverse direction: a
// campaign checkpointed under the Fleet resumes under the subprocess
// dispatcher byte-identically.
func TestSubprocessResumesFleetJournal(t *testing.T) {
	const n = 24
	ckpt := filepath.Join(t.TempDir(), "cross-rev.ckpt")

	// Session 1: fleet dispatch, agents fail run 20 deterministically.
	a1, _ := startAgent(t, cubesFactory(nil), nil)
	f := testFleet(n, a1)
	f.Spec = cubesSpec(n, 20)
	f.Checkpoint = ckpt
	if _, err := campaign.Execute[int, int, string](context.Background(), cubes{n: n, failAt: 20}, f, nil); err == nil {
		t.Fatal("session 1 should have failed at run 20")
	}

	// Session 2: same campaign, same journal, subprocess transport.
	s := subproc(t, n)
	s.Workers, s.Shards, s.Checkpoint = 2, 8, ckpt
	var log bytes.Buffer
	s.Log = &log
	got, err := campaign.Execute[int, int, string](context.Background(), newCubes(n), s, nil)
	if err != nil {
		t.Fatalf("subprocess resume failed: %v\nlog:\n%s", err, log.String())
	}
	if want := serialBaseline(t, n); got != want {
		t.Errorf("resumed output diverged from serial\n got %s\nwant %s", got, want)
	}
	if !strings.Contains(log.String(), "resumed") {
		t.Errorf("log does not record the journal replay:\n%s", log.String())
	}
}

// TestFleetRejectsBadSpec pins handshake rejection: an agent that
// cannot build a lookup from the shipped spec is reported, not
// retried forever — with no other worker the campaign degrades to
// in-process execution and still completes.
func TestFleetRejectsBadSpec(t *testing.T) {
	const n = 16
	a1, _ := startAgent(t, cubesFactory(nil), nil)
	var log bytes.Buffer
	f := testFleet(n, a1)
	f.Spec = "not a cubes spec"
	f.ConnectWait = 500 * time.Millisecond
	f.Log = &log
	got, err := campaign.Execute[int, int, string](context.Background(), newCubes(n), f, nil)
	if err != nil {
		t.Fatalf("campaign failed: %v\nlog:\n%s", err, log.String())
	}
	if want := serialBaseline(t, n); got != want {
		t.Errorf("output diverged from serial\n got %s\nwant %s", got, want)
	}
	if !strings.Contains(log.String(), "rejected spec") && !strings.Contains(log.String(), "degrading") {
		t.Errorf("log records neither the rejection nor the degradation:\n%s", log.String())
	}
}

// TestFleetName pins the executor's diagnostic name shape.
func TestFleetName(t *testing.T) {
	f := &Fleet{Subprocess: Subprocess{Workers: 4, Shards: 8}, Addrs: []string{"a:1", "b:2"}, Listen: "c:3"}
	want := "fleet(workers=4,shards=8,endpoints=" + strconv.Itoa(3) + ")"
	if got := f.Name(); got != want {
		t.Errorf("Name() = %q, want %q", got, want)
	}
}
