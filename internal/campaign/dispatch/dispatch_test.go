package dispatch

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
)

// The dispatcher tests re-exec this very test binary as the worker
// process: TestMain diverts to the worker serve loop when the marker
// environment variable is set, so the Subprocess executor is exercised
// against real processes, real pipes and real SIGKILLs.
const (
	envWorker = "DISPATCH_TEST_WORKER"
	envN      = "DISPATCH_TEST_N"
	envMode   = "DISPATCH_TEST_MODE"
	envMarker = "DISPATCH_TEST_MARKER"
	envFailAt = "DISPATCH_TEST_FAIL_AT"
)

func TestMain(m *testing.M) {
	if os.Getenv(envWorker) == "1" {
		runTestWorker()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cubes is the shared parent/worker test campaign: plan [0, n), cube
// each value. failAt (when >= 0) makes one run fail deterministically;
// hits counts Execute invocations when non-nil. Neither is part of the
// campaign's plan identity, so a failing parent run and a clean resume
// share a plan hash.
type cubes struct {
	campaign.JSONWire[int]
	n      int
	failAt int
	hits   *atomic.Int64
}

func (c cubes) Name() string { return "cubes" }

func (c cubes) Plan() ([]int, error) {
	plan := make([]int, c.n)
	for i := range plan {
		plan[i] = i
	}
	return plan, nil
}

func (c cubes) Execute(_ context.Context, r, i int) (int, error) {
	if c.hits != nil {
		c.hits.Add(1)
	}
	if c.failAt >= 0 && i == c.failAt {
		return 0, fmt.Errorf("deterministic failure at run %d", i)
	}
	return r * r * r, nil
}

func (c cubes) Reduce(_ []int, results []int) (string, error) {
	return fmt.Sprint(results), nil
}

func (c cubes) ShardKey(r, _ int) uint64 { return uint64(r) * 2654435761 }

func newCubes(n int) cubes { return cubes{n: n, failAt: -1} }

// claim atomically wins the right to misbehave exactly once across all
// worker processes sharing the marker path.
func claim(path string) bool {
	if path == "" {
		return false
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return false
	}
	f.Close()
	return true
}

// misbehavingWorker injects one process-level fault (self-SIGKILL or a
// hang) before executing its first claimed run.
type misbehavingWorker struct {
	Worker
	mode   string
	marker string
}

func (m misbehavingWorker) ExecuteEncoded(ctx context.Context, i int) ([]byte, error) {
	// Hangs sleep rather than select{} forever: a no-case select would
	// trip the runtime deadlock detector and crash the worker instead.
	if m.mode == "hang-always" {
		time.Sleep(time.Hour) // every attempt hangs; retry exhaustion ends this
	}
	if claim(m.marker) {
		switch m.mode {
		case "sigkill":
			p, _ := os.FindProcess(os.Getpid())
			p.Kill()
			time.Sleep(time.Hour) // wait for the signal to land
		case "hang":
			time.Sleep(time.Hour) // never answer; the parent's deadline reaps us
		}
	}
	return m.Worker.ExecuteEncoded(ctx, i)
}

func runTestWorker() {
	n, _ := strconv.Atoi(os.Getenv(envN))
	failAt := -1
	if s := os.Getenv(envFailAt); s != "" {
		failAt, _ = strconv.Atoi(s)
	}
	mode, marker := os.Getenv(envMode), os.Getenv(envMarker)
	lookup := func(name string) (Worker, error) {
		if name != "cubes" {
			return nil, fmt.Errorf("test worker only serves cubes, not %q", name)
		}
		w, err := Adapt[int, int, string](cubes{n: n, failAt: failAt})
		if err != nil {
			return nil, err
		}
		return misbehavingWorker{Worker: w, mode: mode, marker: marker}, nil
	}
	var err error
	if mode == "corrupt" {
		err = corruptServe(marker, lookup)
	} else {
		err = Serve(context.Background(), lookup, os.Stdin, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "test worker:", err)
		os.Exit(1)
	}
}

// corruptServe answers its first claimed shard with a garbage payload
// and a wrong integrity hash, then behaves properly.
func corruptServe(marker string, lookup func(string) (Worker, error)) error {
	bw := bufio.NewWriter(os.Stdout)
	if err := writeFrame(bw, hello{Proto: protoVersion, PID: os.Getpid()}); err != nil {
		return err
	}
	br := bufio.NewReader(os.Stdin)
	workers := make(map[string]Worker)
	for {
		var req request
		switch err := readFrame(br, &req); {
		case err == io.EOF:
			return nil
		case err != nil:
			return err
		}
		if claim(marker) {
			resp := response{
				Seq:     req.Seq,
				Shard:   req.Shard,
				Results: []runPayload{{Index: req.Indices[0], Payload: []byte("garbage")}},
				Hash:    hex64(0xdead),
			}
			if err := writeFrame(bw, envelope{Resp: &resp}); err != nil {
				return err
			}
			continue
		}
		resp := serveShard(context.Background(), workers, lookup, req)
		if err := writeFrame(bw, envelope{Resp: &resp}); err != nil {
			return err
		}
	}
}

// subproc builds a Subprocess whose workers are this test binary.
func subproc(t *testing.T, n int, extraEnv ...string) *Subprocess {
	t.Helper()
	return &Subprocess{
		Command:      []string{os.Args[0]},
		Env:          append([]string{envWorker + "=1", envN + "=" + strconv.Itoa(n)}, extraEnv...),
		ShardTimeout: 30 * time.Second,
		BackoffBase:  time.Millisecond,
		BackoffCap:   4 * time.Millisecond,
	}
}

func serialBaseline(t *testing.T, n int) string {
	t.Helper()
	out, err := campaign.Execute[int, int, string](context.Background(), newCubes(n), campaign.Sharded{Workers: 1, Shards: 1}, nil)
	if err != nil {
		t.Fatalf("serial baseline: %v", err)
	}
	return out
}

// TestSubprocessMatchesSerial pins the headline determinism claim: the
// same campaign dispatched to 1, 2 and 4 worker processes at several
// shard widths reduces byte-identically to the serial run.
func TestSubprocessMatchesSerial(t *testing.T) {
	const n = 24
	want := serialBaseline(t, n)
	for _, workers := range []int{1, 2, 4} {
		for _, shards := range []int{1, 2, 8} {
			s := subproc(t, n)
			s.Workers, s.Shards = workers, shards
			got, err := campaign.Execute[int, int, string](context.Background(), newCubes(n), s, nil)
			if err != nil {
				t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
			}
			if got != want {
				t.Errorf("workers=%d shards=%d: output diverged from serial\n got %s\nwant %s", workers, shards, got, want)
			}
		}
	}
}

// TestSubprocessInProcessMatchesSerial pins the degraded (no Command)
// path against the same baseline.
func TestSubprocessInProcessMatchesSerial(t *testing.T) {
	const n = 24
	want := serialBaseline(t, n)
	for _, shards := range []int{1, 2, 8} {
		s := &Subprocess{Workers: 3, Shards: shards}
		got, err := campaign.Execute[int, int, string](context.Background(), newCubes(n), s, nil)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got != want {
			t.Errorf("shards=%d: output diverged from serial\n got %s\nwant %s", shards, got, want)
		}
	}
}

// TestSubprocessDegradesWhenSpawningFails pins graceful degradation: an
// unspawnable worker binary falls back to in-process execution instead
// of failing the campaign.
func TestSubprocessDegradesWhenSpawningFails(t *testing.T) {
	const n = 16
	var log bytes.Buffer
	s := &Subprocess{
		Command: []string{filepath.Join(t.TempDir(), "no-such-worker-binary")},
		Workers: 2, Shards: 4, Log: &log,
	}
	got, err := campaign.Execute[int, int, string](context.Background(), newCubes(n), s, nil)
	if err != nil {
		t.Fatalf("degraded run: %v", err)
	}
	if want := serialBaseline(t, n); got != want {
		t.Errorf("degraded output diverged from serial\n got %s\nwant %s", got, want)
	}
	if !strings.Contains(log.String(), "degrading to in-process execution") {
		t.Errorf("log does not record the degradation:\n%s", log.String())
	}
}

// kills the acceptance scenario head on: a worker is SIGKILLed
// mid-shard; the dispatcher detects the crash, re-dispatches the shard
// to a fresh worker with backoff, and the campaign completes with a
// diagnostic naming the shard key and attempt count.
func TestSubprocessSurvivesWorkerSigkill(t *testing.T) {
	const n = 24
	marker := filepath.Join(t.TempDir(), "sigkill.once")
	var log bytes.Buffer
	s := subproc(t, n, envMode+"=sigkill", envMarker+"="+marker)
	s.Workers, s.Shards, s.Retries, s.Log = 2, 8, 2, &log

	got, err := campaign.Execute[int, int, string](context.Background(), newCubes(n), s, nil)
	if err != nil {
		t.Fatalf("campaign did not survive the SIGKILLed worker: %v\nlog:\n%s", err, log.String())
	}
	if want := serialBaseline(t, n); got != want {
		t.Errorf("output diverged from serial after worker crash\n got %s\nwant %s", got, want)
	}
	logs := log.String()
	if !strings.Contains(logs, "worker crashed mid-shard") {
		t.Errorf("log does not diagnose the crash:\n%s", logs)
	}
	if !strings.Contains(logs, "attempt 1/3 failed") || !strings.Contains(logs, "retrying on a fresh worker") {
		t.Errorf("log does not name the attempt count and re-dispatch:\n%s", logs)
	}
	if !strings.Contains(logs, "shard ") {
		t.Errorf("log does not name the shard key:\n%s", logs)
	}
}

// TestSubprocessReapsHungWorker pins hang detection: a worker that
// never answers is killed at the shard deadline and its shard retried.
func TestSubprocessReapsHungWorker(t *testing.T) {
	const n = 24
	marker := filepath.Join(t.TempDir(), "hang.once")
	var log bytes.Buffer
	s := subproc(t, n, envMode+"=hang", envMarker+"="+marker)
	s.Workers, s.Shards, s.Retries, s.Log = 2, 8, 2, &log
	s.ShardTimeout = 300 * time.Millisecond

	got, err := campaign.Execute[int, int, string](context.Background(), newCubes(n), s, nil)
	if err != nil {
		t.Fatalf("campaign did not survive the hung worker: %v\nlog:\n%s", err, log.String())
	}
	if want := serialBaseline(t, n); got != want {
		t.Errorf("output diverged from serial after worker hang\n got %s\nwant %s", got, want)
	}
	if !strings.Contains(log.String(), "worker hung (no response within") {
		t.Errorf("log does not diagnose the hang:\n%s", log.String())
	}
}

// TestSubprocessRejectsCorruptResponses pins the integrity check: a
// response whose payload does not match its hash is discarded and the
// shard re-run, never stored.
func TestSubprocessRejectsCorruptResponses(t *testing.T) {
	const n = 24
	marker := filepath.Join(t.TempDir(), "corrupt.once")
	var log bytes.Buffer
	s := subproc(t, n, envMode+"=corrupt", envMarker+"="+marker)
	s.Workers, s.Shards, s.Retries, s.Log = 2, 8, 2, &log

	got, err := campaign.Execute[int, int, string](context.Background(), newCubes(n), s, nil)
	if err != nil {
		t.Fatalf("campaign did not survive the corrupted response: %v\nlog:\n%s", err, log.String())
	}
	if want := serialBaseline(t, n); got != want {
		t.Errorf("corrupted payload leaked into the output\n got %s\nwant %s", got, want)
	}
	if !strings.Contains(log.String(), "corrupted shard result") {
		t.Errorf("log does not diagnose the corruption:\n%s", log.String())
	}
}

// TestSubprocessAbortsOnDeterministicFailure pins error classification:
// a campaign-level failure reported by a worker aborts immediately —
// the retry budget is never spent on a failure that cannot heal.
func TestSubprocessAbortsOnDeterministicFailure(t *testing.T) {
	const n = 24
	var log bytes.Buffer
	s := subproc(t, n, envFailAt+"=5")
	s.Workers, s.Shards, s.Retries, s.Log = 2, 4, 3, &log

	_, err := campaign.Execute[int, int, string](context.Background(), newCubes(n), s, nil)
	if err == nil {
		t.Fatal("campaign succeeded despite a deterministic run failure in the worker")
	}
	if !strings.Contains(err.Error(), "worker reported") || !strings.Contains(err.Error(), "run 5") {
		t.Errorf("error does not carry the worker diagnostic: %v", err)
	}
	if strings.Contains(log.String(), "retrying") {
		t.Errorf("dispatcher retried a deterministic failure:\n%s", log.String())
	}
}

// TestSubprocessRejectsPlanMismatch pins the plan-hash handshake: a
// worker that disagrees on campaign identity is a deterministic error,
// not something to retry.
func TestSubprocessRejectsPlanMismatch(t *testing.T) {
	s := subproc(t, 8) // worker plans 8 runs; parent plans 16
	s.Workers, s.Shards = 1, 4
	_, err := campaign.Execute[int, int, string](context.Background(), newCubes(16), s, nil)
	if err == nil || !strings.Contains(err.Error(), "plan mismatch") {
		t.Fatalf("err = %v, want a plan mismatch diagnostic", err)
	}
}

// TestSubprocessExhaustsRetriesWithDiagnostic pins the failure shape
// when every attempt fails: the error names the shard key and the
// attempt count.
func TestSubprocessExhaustsRetriesWithDiagnostic(t *testing.T) {
	const n = 8
	var log bytes.Buffer
	s := subproc(t, n, envMode+"=hang-always")
	s.Workers, s.Shards, s.Retries, s.Log = 1, 1, 1, &log
	s.ShardTimeout = 200 * time.Millisecond

	_, err := campaign.Execute[int, int, string](context.Background(), newCubes(n), s, nil)
	if err == nil {
		t.Fatal("campaign succeeded though every worker hangs")
	}
	if !strings.Contains(err.Error(), "failed after 2 attempts") || !strings.Contains(err.Error(), "shard ") {
		t.Errorf("exhaustion error does not name the shard and attempt count: %v", err)
	}
}

// TestSubprocessCancellation pins that mid-campaign cancellation
// surfaces as context.Canceled, on both the worker and in-process
// paths.
func TestSubprocessCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, s := range map[string]*Subprocess{
		"worker":    subproc(t, 16),
		"inprocess": {Workers: 2, Shards: 4},
	} {
		_, err := campaign.Execute[int, int, string](ctx, newCubes(16), s, nil)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

func TestBackoffDelayDeterministicAndCapped(t *testing.T) {
	base, cap := 10*time.Millisecond, 80*time.Millisecond
	var prev []time.Duration
	for trial := 0; trial < 2; trial++ {
		var ds []time.Duration
		for attempt := 1; attempt <= 6; attempt++ {
			ds = append(ds, backoffDelay(base, cap, 42, 0xfeed, attempt))
		}
		if trial == 1 {
			for i := range ds {
				if ds[i] != prev[i] {
					t.Fatalf("backoff not deterministic: %v vs %v", ds, prev)
				}
			}
		}
		prev = ds
	}
	for attempt, d := range prev {
		if d < base || d >= cap+base {
			t.Errorf("attempt %d: delay %v outside [base, cap+jitter)", attempt+1, d)
		}
	}
	if prev[0] >= prev[3] {
		t.Errorf("backoff does not grow: %v", prev)
	}
	// Different keys draw different jitter.
	if backoffDelay(base, cap, 42, 1, 1) == backoffDelay(base, cap, 42, 2, 1) &&
		backoffDelay(base, cap, 42, 1, 2) == backoffDelay(base, cap, 42, 2, 2) {
		t.Error("jitter does not depend on the key")
	}
}
