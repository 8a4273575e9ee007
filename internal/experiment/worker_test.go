package experiment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
)

// experimentWorkerEnv diverts the test binary into worker mode: the
// subprocess tests re-exec this binary as their shard workers, exactly
// as cmd/inject and cmd/reproduce re-exec themselves under
// -worker-shard.
const experimentWorkerEnv = "EXPERIMENT_TEST_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(experimentWorkerEnv) == "1" {
		if err := ServeWorker(context.Background(), os.Getenv(WorkerSpecEnv), os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "experiment test worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// subprocessOpts configures a campaign to dispatch its shards to
// re-execs of the test binary.
func subprocessOpts(t *testing.T, workers, shards int, spec WorkerSpec, checkpoint string, log *syncLog) Options {
	t.Helper()
	opts := determinismOpts(workers)
	opts.Shards = shards
	spec.Options = opts
	specJSON, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	opts.Dispatch = &DispatchConfig{
		Command:      []string{os.Args[0]},
		Env:          []string{experimentWorkerEnv + "=1", WorkerSpecEnv + "=" + specJSON},
		Checkpoint:   checkpoint,
		ShardTimeout: 2 * time.Minute,
		Log:          log,
	}
	return opts
}

// syncLog is a concurrency-safe dispatcher log buffer.
type syncLog struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (l *syncLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *syncLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// TestPermeabilitySubprocessDeterministicAcrossWorkers pins the
// acceptance matrix at the experiment level: the Table 1 campaign
// reduces byte-identical whether it runs serially or on real worker
// subprocesses at worker counts 1, 2 and 4 and shard counts 1, 2 and 8.
func TestPermeabilitySubprocessDeterministicAcrossWorkers(t *testing.T) {
	ClearGoldenCache()
	base, err := EstimatePermeability(context.Background(), determinismOpts(1), 6)
	if err != nil {
		t.Fatal(err)
	}
	ref := permeabilityFingerprint(t, base)

	for _, arm := range []struct{ workers, shards int }{{1, 8}, {2, 2}, {4, 1}, {4, 8}} {
		ClearGoldenCache()
		var log syncLog
		opts := subprocessOpts(t, arm.workers, arm.shards, WorkerSpec{PerInput: 6}, "", &log)
		res, err := EstimatePermeability(context.Background(), opts, 6)
		if err != nil {
			t.Fatalf("workers=%d shards=%d: %v\nlog:\n%s", arm.workers, arm.shards, err, log.String())
		}
		if fp := permeabilityFingerprint(t, res); fp != ref {
			t.Errorf("workers=%d shards=%d differs from serial:\n--- serial ---\n%s\n--- subprocess ---\n%s",
				arm.workers, arm.shards, ref, fp)
		}
	}
}

// TestInputCoverageSubprocessMatchesSerial runs the Table 4 campaign —
// whose reduction folds per-EA and per-set maps — through real worker
// subprocesses and pins it against the serial reference.
func TestInputCoverageSubprocessMatchesSerial(t *testing.T) {
	ClearGoldenCache()
	base, err := InputCoverage(context.Background(), determinismOpts(1), 6, nil)
	if err != nil {
		t.Fatal(err)
	}

	ClearGoldenCache()
	var log syncLog
	opts := subprocessOpts(t, 2, 4, WorkerSpec{PerSignal: 6}, "", &log)
	res, err := InputCoverage(context.Background(), opts, 6, nil)
	if err != nil {
		t.Fatalf("subprocess: %v\nlog:\n%s", err, log.String())
	}
	if a, b := coverageFingerprint(t, base), coverageFingerprint(t, res); a != b {
		t.Errorf("subprocess coverage differs from serial:\n--- serial ---\n%s\n--- subprocess ---\n%s", a, b)
	}
}

// TestCampaignCancellationLeavesResumableJournal is the satellite-4
// scenario: a SIGINT mid-campaign (the commands translate it to
// context cancellation via signal.NotifyContext) must surface
// context.Canceled, must not produce a timing report — the commands
// write BENCH_campaigns.json only after a campaign succeeds — and must
// leave a journal from which a rerun reduces byte-identical to an
// uninterrupted campaign.
func TestCampaignCancellationLeavesResumableJournal(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "perm.journal")
	benchPath := filepath.Join(dir, "BENCH_campaigns.json")

	ClearGoldenCache()
	base, err := EstimatePermeability(context.Background(), determinismOpts(1), 6)
	if err != nil {
		t.Fatal(err)
	}
	ref := permeabilityFingerprint(t, base)

	// Interrupted run: in-process dispatch (Command empty) with a
	// checkpoint; the first shard landing in the journal triggers
	// cancellation, as a ^C between shards would.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for {
			if fi, serr := os.Stat(journalPath); serr == nil && fi.Size() > 0 {
				cancel()
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	log := &syncLog{}
	ClearGoldenCache()
	opts := determinismOpts(2)
	opts.Shards = 8
	opts.Timings = campaign.NewCollector()
	opts.Dispatch = &DispatchConfig{Checkpoint: journalPath, Log: log}
	_, err = EstimatePermeability(ctx, opts, 6)
	if err == nil {
		t.Fatalf("cancelled campaign reported success\nlog:\n%s", log.String())
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}

	// The commands only write the timing report after the campaign
	// returns nil, so an interrupted run must leave none.
	if err == nil {
		if werr := WriteCampaignTimings(benchPath, opts.Seed, opts.Workers, opts.Timings); werr != nil {
			t.Fatal(werr)
		}
	}
	if _, statErr := os.Stat(benchPath); !errors.Is(statErr, os.ErrNotExist) {
		t.Errorf("interrupted campaign left a timing report at %s", benchPath)
	}
	if fi, statErr := os.Stat(journalPath); statErr != nil || fi.Size() == 0 {
		t.Fatalf("interrupted campaign left no journal (stat: %v)", statErr)
	}

	// Resume: same options, fresh context. The journal replays the
	// completed shards and the rest re-run; the reduction must be
	// byte-identical to the uninterrupted serial reference.
	resumeLog := &syncLog{}
	ClearGoldenCache()
	opts2 := determinismOpts(2)
	opts2.Shards = 8
	opts2.Dispatch = &DispatchConfig{Checkpoint: journalPath, Log: resumeLog}
	res, err := EstimatePermeability(context.Background(), opts2, 6)
	if err != nil {
		t.Fatalf("resume: %v\nlog:\n%s", err, resumeLog.String())
	}
	if !strings.Contains(resumeLog.String(), "resumed") {
		t.Errorf("resume log shows no shard replay:\n%s", resumeLog.String())
	}
	if fp := permeabilityFingerprint(t, res); fp != ref {
		t.Errorf("resumed campaign differs from uninterrupted run:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", ref, fp)
	}
}
