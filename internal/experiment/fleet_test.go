package experiment

import (
	"bytes"
	"context"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign/chaos"
	"repro/internal/campaign/dispatch"
	dnet "repro/internal/campaign/dispatch/net"
)

// startTestAgents runs count in-process networked worker agents on the
// real experiment LookupFactory (the one cmd/inject -worker-listen
// uses) and returns their dial addresses. The campaign spec reaches
// each agent over the wire at handshake, exactly as in a two-terminal
// deployment. A non-nil tap intercepts every frame of every agent.
func startTestAgents(t *testing.T, count int, tap dnet.Tap) []string {
	t.Helper()
	addrs := make([]string, count)
	for i := range addrs {
		ctx, cancel := context.WithCancel(context.Background())
		addrCh := make(chan net.Addr, 1)
		done := make(chan struct{})
		go func() {
			defer close(done)
			dispatch.ServeNet(ctx, "127.0.0.1:0", LookupFromSpec, dispatch.NetServeOptions{
				Tap:   tap,
				Ready: func(a net.Addr) { addrCh <- a },
			})
		}()
		t.Cleanup(func() {
			cancel()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Error("worker agent did not shut down")
			}
		})
		select {
		case a := <-addrCh:
			addrs[i] = a.String()
		case <-time.After(5 * time.Second):
			t.Fatal("worker agent did not start")
		}
	}
	return addrs
}

// fleetDispatchOpts attaches a fleet coordinator to opts, shipping the
// encoded worker spec at handshake. No subprocess Command is set, so a
// dead fleet would degrade straight to in-process execution — which
// would still pass the byte-identity checks, hence the log assertions
// where liveness matters.
func fleetDispatchOpts(t *testing.T, opts Options, spec WorkerSpec, addrs []string, log io.Writer) Options {
	t.Helper()
	spec.Options = opts
	specJSON, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	opts.Dispatch = &DispatchConfig{
		Fleet:        addrs,
		Spec:         specJSON,
		Heartbeat:    200 * time.Millisecond,
		ShardTimeout: 60 * time.Second,
		Log:          log,
	}
	return opts
}

// netChaos returns a fault tap for fleet chaos tests: corrupted frame
// bodies and connection resets, never inside a connection's handshake,
// and at most maxFaults of them so the chaos provably runs dry.
func netChaos(seed int64, maxFaults int64) *chaos.NetFaults {
	return &chaos.NetFaults{
		Seed:        seed,
		CorruptRate: 0.15,
		ResetRate:   0.15,
		SkipFrames:  2, // hello and ack out, netConfig and the first request in
		MaxFaults:   maxFaults,
	}
}

// chaosFleetOpts dispatches opts over two in-process agents wearing
// tap, with a shard retry budget that outlasts the tap's fault cap:
// one fault fails at most one shard attempt.
func chaosFleetOpts(t *testing.T, opts Options, spec WorkerSpec, tap *chaos.NetFaults, log *syncLog) Options {
	t.Helper()
	opts = fleetDispatchOpts(t, opts, spec, startTestAgents(t, 2, tap), log)
	opts.Dispatch.Retries = int(tap.MaxFaults)
	return opts
}

// checkChaosHealed asserts that a chaos campaign really ran on the
// faulty fleet: faults fired, the coordinator re-dispatched a shard,
// and no shard fell back to in-process execution — which would also
// reproduce the serial output and so prove nothing.
func checkChaosHealed(t *testing.T, name string, tap *chaos.NetFaults, log string) {
	t.Helper()
	if tap.Faults() == 0 {
		t.Errorf("%s: no network faults fired; the chaos arm proved nothing", name)
	}
	if !strings.Contains(log, "retrying on a fresh worker") {
		t.Errorf("%s: no shard was re-dispatched after a fault:\n%s", name, log)
	}
	for _, bad := range []string{"degrading", "in-process"} {
		if strings.Contains(log, bad) {
			t.Errorf("%s: the campaign left the fleet (%q):\n%s", name, bad, log)
		}
	}
}

// TestPermeabilityChaosWithRetryMatchesSerial runs Table 1's exact
// permeability campaign on a fleet whose agents corrupt, reset and drop
// frames, and asserts the coordinator's shard re-dispatch heals every
// fault: output byte-identical to the Workers: 1 run. A dropped frame
// is noticed only by the shard deadline (a duplicate goes out at half
// of it), so this arm runs with a short one.
func TestPermeabilityChaosWithRetryMatchesSerial(t *testing.T) {
	ClearGoldenCache()
	base, err := EstimatePermeability(context.Background(), determinismOpts(1), 6)
	if err != nil {
		t.Fatal(err)
	}

	ClearGoldenCache()
	var log syncLog
	tap := netChaos(106, 4) // the first frame after the ack drops, the next is corrupted
	tap.DropRate = 0.1
	opts := chaosFleetOpts(t, determinismOpts(4), WorkerSpec{PerInput: 6}, tap, &log)
	opts.Dispatch.ShardTimeout = 2 * time.Second
	res, err := EstimatePermeability(context.Background(), opts, 6)
	if err != nil {
		t.Fatalf("chaos campaign: %v\nlog:\n%s", err, log.String())
	}
	if a, b := permeabilityFingerprint(t, base), permeabilityFingerprint(t, res); a != b {
		t.Errorf("chaos campaign differs from serial after %d faults:\n--- serial ---\n%s\n--- chaos ---\n%s",
			tap.Faults(), a, b)
	}
	checkChaosHealed(t, "exact", tap, log.String())
}

// TestFleetPermeabilityMatchesSerial pins the experiment-level fleet
// determinism claim on the paper's Table 1 campaign: permeability
// estimated across two networked worker agents is byte-identical to
// the serial run, with the adaptive early-stopping rounds riding the
// per-round fleet handshake.
func TestFleetPermeabilityMatchesSerial(t *testing.T) {
	const perInput = 6
	for _, adaptive := range []bool{false, true} {
		name := "exact"
		if adaptive {
			name = "adaptive"
		}
		ClearGoldenCache()
		serialOpts := determinismOpts(1)
		serialOpts.Adaptive = adaptive
		want, err := EstimatePermeability(context.Background(), serialOpts, perInput)
		if err != nil {
			t.Fatalf("%s serial baseline: %v", name, err)
		}

		ClearGoldenCache()
		addrs := startTestAgents(t, 2, nil)
		var log bytes.Buffer
		opts := determinismOpts(2)
		opts.Adaptive = adaptive
		opts = fleetDispatchOpts(t, opts, WorkerSpec{PerInput: perInput}, addrs, &log)
		got, err := EstimatePermeability(context.Background(), opts, perInput)
		if err != nil {
			t.Fatalf("%s fleet campaign: %v\nlog:\n%s", name, err, log.String())
		}
		if g, w := permeabilityFingerprint(t, got), permeabilityFingerprint(t, want); g != w {
			t.Errorf("%s: fleet permeability diverged from serial\n--- serial ---\n%s\n--- fleet ---\n%s", name, w, g)
		}
		if !bytes.Contains(log.Bytes(), []byte("joined")) {
			t.Errorf("%s: no worker ever joined; the fleet path was not exercised:\n%s", name, log.String())
		}
		if bytes.Contains(log.Bytes(), []byte("degrading")) {
			t.Errorf("%s: the campaign degraded instead of using the fleet:\n%s", name, log.String())
		}
	}
}

// TestFleetInputCoverageOnTankMatchesSerial pins the same claim on a
// second campaign and a second target: Table 4 input coverage on the
// tank system, dispatched across a fleet, byte-identical to serial.
func TestFleetInputCoverageOnTankMatchesSerial(t *testing.T) {
	const perSignal = 4
	serialOpts := tankOpts(t, 5)
	serialOpts.Workers = 1
	serialOpts.Cases = serialOpts.Cases[:1]
	ClearGoldenCache()
	want, err := InputCoverage(context.Background(), serialOpts, perSignal, nil)
	if err != nil {
		t.Fatalf("serial baseline: %v", err)
	}

	ClearGoldenCache()
	addrs := startTestAgents(t, 2, nil)
	var log bytes.Buffer
	opts := tankOpts(t, 5)
	opts.Cases = opts.Cases[:1]
	opts = fleetDispatchOpts(t, opts, WorkerSpec{PerSignal: perSignal}, addrs, &log)
	got, err := InputCoverage(context.Background(), opts, perSignal, nil)
	if err != nil {
		t.Fatalf("fleet campaign: %v\nlog:\n%s", err, log.String())
	}
	if g, w := coverageFingerprint(t, got), coverageFingerprint(t, want); g != w {
		t.Errorf("fleet tank coverage diverged from serial\n--- serial ---\n%s\n--- fleet ---\n%s", w, g)
	}
	if !bytes.Contains(log.Bytes(), []byte("joined")) {
		t.Errorf("no worker ever joined; the fleet path was not exercised:\n%s", log.String())
	}
	if bytes.Contains(log.Bytes(), []byte("degrading")) {
		t.Errorf("the campaign degraded instead of using the fleet:\n%s", log.String())
	}
}

// TestValidateFleetFlags pins the CLI flag validation: bad
// combinations and malformed addresses fail before any campaign work.
func TestValidateFleetFlags(t *testing.T) {
	cases := []struct {
		name                                            string
		fleet, fleetListen, workerListen, workerConnect string
		heartbeat                                       time.Duration
		workerShard                                     bool
		wantErr                                         bool
	}{
		{name: "all off"},
		{name: "fleet ok", fleet: "127.0.0.1:9000,127.0.0.1:9001"},
		{name: "fleet listen ok", fleetListen: "127.0.0.1:9000"},
		{name: "agent listen ok", workerListen: "127.0.0.1:9000"},
		{name: "agent connect ok", workerConnect: "127.0.0.1:9000"},
		{name: "heartbeat with fleet ok", fleet: "127.0.0.1:9000", heartbeat: time.Second},
		{name: "listen and connect", workerListen: "a:1", workerConnect: "b:2", wantErr: true},
		{name: "agent with coordinator", fleet: "127.0.0.1:9000", workerListen: "a:1", wantErr: true},
		{name: "agent with worker-shard", workerConnect: "a:1", workerShard: true, wantErr: true},
		{name: "fleet with worker-shard", fleet: "127.0.0.1:9000", workerShard: true, wantErr: true},
		{name: "heartbeat without fleet", heartbeat: time.Second, wantErr: true},
		{name: "malformed fleet addr", fleet: "no-port", wantErr: true},
		{name: "malformed fleet-listen", fleetListen: "no-port", wantErr: true},
		{name: "malformed worker-listen", workerListen: "no-port", wantErr: true},
		{name: "malformed worker-connect", workerConnect: "no-port", wantErr: true},
	}
	for _, tc := range cases {
		err := ValidateFleetFlags(tc.fleet, tc.fleetListen, tc.workerListen, tc.workerConnect, tc.heartbeat, tc.workerShard)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", tc.name, err, tc.wantErr)
		}
	}
}

// TestParseFleet pins the -fleet list parser.
func TestParseFleet(t *testing.T) {
	addrs, err := ParseFleet(" 127.0.0.1:9000, host:9001 ,,")
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 2 || addrs[0] != "127.0.0.1:9000" || addrs[1] != "host:9001" {
		t.Errorf("addrs = %v", addrs)
	}
	if _, err := ParseFleet("missing-port"); err == nil {
		t.Error("malformed address accepted")
	}
	if addrs, err := ParseFleet(""); err != nil || addrs != nil {
		t.Errorf("empty flag: addrs=%v err=%v", addrs, err)
	}
}
