package experiment

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/traceview"
)

// TestFleetMetricsDuringCampaign scrapes /metrics while a campaign runs
// across networked worker agents: the run counter must stay monotone
// between scrapes and finish exactly at the plan size. The agents here
// are in-process, which makes this a regression gate for the hello-token
// merge skip — without it, every agent's metric delta would be merged
// back into the registry it was read from and the counter would
// overshoot the plan.
func TestFleetMetricsDuringCampaign(t *testing.T) {
	prev := obs.Install(nil)
	defer obs.Install(prev)

	tel := obs.New(obs.Config{})
	obs.Install(tel)
	defer func() { obs.Install(nil); tel.Close() }()

	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	const perInput = 6
	ClearGoldenCache()
	addrs := startTestAgents(t, 2, nil)
	var log bytes.Buffer
	opts := fleetDispatchOpts(t, determinismOpts(2), WorkerSpec{PerInput: perInput}, addrs, &log)

	type outcome struct {
		res *PermeabilityResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := EstimatePermeability(context.Background(), opts, perInput)
		done <- outcome{res, err}
	}()

	const runsDone = `repro_campaign_runs_done_total{campaign="permeability"}`
	var last float64
	var out outcome
poll:
	for {
		select {
		case out = <-done:
			break poll
		case <-time.After(2 * time.Millisecond):
			v, ok := scrapeValue(t, srv.URL, runsDone)
			if ok && v < last {
				t.Fatalf("runs-done counter went backwards: %g -> %g", last, v)
			}
			if ok {
				last = v
			}
		}
	}
	if out.err != nil {
		t.Fatalf("fleet campaign: %v\nlog:\n%s", out.err, log.String())
	}
	if !bytes.Contains(log.Bytes(), []byte("joined")) {
		t.Fatalf("no worker ever joined; the fleet path was not exercised:\n%s", log.String())
	}

	final, ok := scrapeValue(t, srv.URL, runsDone)
	if !ok {
		t.Fatalf("final scrape is missing %s", runsDone)
	}
	if final < last {
		t.Fatalf("final runs-done %g below mid-campaign scrape %g", final, last)
	}
	if int(final) != out.res.TotalRuns {
		t.Errorf("runs-done counter %g, want plan size %d (agent deltas double-merged?)",
			final, out.res.TotalRuns)
	}
}

// TestFleetTraceMergesWorkerSpans is the tracing acceptance gate: a
// campaign dispatched across three networked agents must produce one
// merged trace in the event log — worker-recorded spans stamped with
// the campaign's deterministic trace id, nested under the coordinator's
// dispatch spans, with queue/exec/net phase attribution on each shard.
func TestFleetTraceMergesWorkerSpans(t *testing.T) {
	prev := obs.Install(nil)
	defer obs.Install(prev)

	events := filepath.Join(t.TempDir(), "events.ndjson")
	f, err := os.Create(events)
	if err != nil {
		t.Fatal(err)
	}
	tel := obs.New(obs.Config{EventSink: f})
	obs.Install(tel)

	const perInput = 6
	ClearGoldenCache()
	addrs := startTestAgents(t, 3, nil)
	var log bytes.Buffer
	opts := fleetDispatchOpts(t, determinismOpts(3), WorkerSpec{PerInput: perInput}, addrs, &log)
	if _, err := EstimatePermeability(context.Background(), opts, perInput); err != nil {
		t.Fatalf("fleet campaign: %v\nlog:\n%s", err, log.String())
	}
	tel.Close()
	obs.Install(nil)
	f.Close()

	ef, err := os.Open(events)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	a, err := traceview.Parse(ef)
	if err != nil {
		t.Fatal(err)
	}
	if a.Skipped > 0 {
		t.Errorf("%d unparseable lines in a clean run's event log", a.Skipped)
	}

	// The campaign root carries a trace id; every traced span in the log
	// agrees with it (one coherent trace, not per-process fragments).
	var trace string
	for _, s := range a.Spans {
		if s.Name == "campaign" && s.Trace != "" {
			trace = s.Trace
			break
		}
	}
	if trace == "" {
		t.Fatal("no campaign root span with a trace id")
	}
	var dispatchSpans, workerRoots, workerExecs int
	for _, s := range a.Spans {
		if s.Trace != "" && s.Trace != trace {
			t.Errorf("span %s carries trace %q, want %q", s.Name, s.Trace, trace)
		}
		switch s.Name {
		case "dispatch.shard":
			dispatchSpans++
			for _, key := range []string{"queue_ms", "exec_ms", "net_ms"} {
				if _, ok := s.Attrs[key]; !ok {
					t.Errorf("dispatch.shard %s missing %s attribution: %v", s.Attrs["shard"], key, s.Attrs)
				}
			}
		case "worker.shard":
			workerRoots++
			if s.Trace != trace {
				t.Errorf("worker.shard not stamped with campaign trace: %q", s.Trace)
			}
			if p, ok := a.Spans[s.Parent]; !ok || p.Name != "dispatch.shard" {
				t.Errorf("worker.shard parent is %v, want a dispatch.shard span", s.Parent)
			}
		case "worker.exec":
			workerExecs++
			if p, ok := a.Spans[s.Parent]; !ok || p.Name != "worker.shard" {
				t.Errorf("worker.exec parent is %v, want a worker.shard span", s.Parent)
			}
		}
	}
	if dispatchSpans == 0 || workerRoots == 0 || workerExecs == 0 {
		t.Fatalf("merged trace incomplete: %d dispatch.shard, %d worker.shard, %d worker.exec spans",
			dispatchSpans, workerRoots, workerExecs)
	}
	if workerRoots != dispatchSpans {
		t.Errorf("%d worker.shard subtrees for %d dispatch.shard spans; every shard should fold one",
			workerRoots, dispatchSpans)
	}

	// The analyzer must walk this log end to end: critical path from the
	// campaign root and per-shard phase attribution.
	var report bytes.Buffer
	if err := traceview.WriteReport(&report, a, 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(report.Bytes(), []byte("slowest shards")) {
		t.Errorf("analyzer report has no straggler section:\n%s", report.String())
	}
	var folded bytes.Buffer
	if err := traceview.WriteFolded(&folded, a); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(folded.Bytes(), []byte("worker.shard")) {
		t.Errorf("folded stacks missing worker frames:\n%s", folded.String())
	}
}

// TestCancelMidCampaignEventsParse kills a campaign mid-flight via
// context cancellation and requires the event log on disk to remain
// parseable — the flush-per-record contract: at worst the final line is
// cut, never an earlier one, and no record is lost in a buffer.
func TestCancelMidCampaignEventsParse(t *testing.T) {
	prev := obs.Install(nil)
	defer obs.Install(prev)

	events := filepath.Join(t.TempDir(), "events.ndjson")
	f, err := os.Create(events)
	if err != nil {
		t.Fatal(err)
	}
	tel := obs.New(obs.Config{EventSink: f})
	obs.Install(tel)

	ClearGoldenCache()
	opts := determinismOpts(2)
	opts.Shards = 8

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := EstimatePermeability(ctx, opts, 6)
		done <- err
	}()

	// Cancel as soon as the log has real content, so the writer dies
	// with records in flight rather than after a clean finish.
	deadline := time.After(10 * time.Second)
	for {
		if st, err := os.Stat(events); err == nil && st.Size() > 0 {
			break
		}
		select {
		case <-done:
			// Campaign finished before any span ended — still fine, the
			// parseability claim below holds either way.
		case <-deadline:
			t.Fatal("event log never received a record")
		case <-time.After(time.Millisecond):
			continue
		}
		break
	}
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("campaign did not stop after cancel")
	}
	// Deliberately NO tel.Close() before reading: the records already on
	// disk must parse without a final flush.
	ef, err := os.Open(events)
	if err != nil {
		t.Fatal(err)
	}
	a, perr := traceview.Parse(ef)
	ef.Close()
	tel.Close()
	obs.Install(nil)
	f.Close()
	if perr != nil {
		t.Fatal(perr)
	}
	if a.Lines == 0 {
		t.Fatal("event log is empty")
	}
	if a.Skipped > 1 {
		t.Errorf("%d of %d lines unparseable; flush-per-record allows at most the final line cut",
			a.Skipped, a.Lines)
	}
}
