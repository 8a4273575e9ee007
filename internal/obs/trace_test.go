package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceIDDeterministic(t *testing.T) {
	if got := TraceID(0xdeadbeef); got != "00000000deadbeef" {
		t.Errorf("TraceID = %q, want 00000000deadbeef", got)
	}
	if TraceID(1) != TraceID(1) {
		t.Error("TraceID not deterministic")
	}
}

func TestTraceContext(t *testing.T) {
	ctx := context.Background()
	if SpanFromContext(ctx) != nil || TraceFromContext(ctx) != "" {
		t.Error("empty context should carry no span or trace")
	}
	l := NewEventLog(&bytes.Buffer{})
	sp := l.StartSpan("campaign.execute", nil)
	ctx = WithTrace(ctx, sp, "0123456789abcdef")
	if SpanFromContext(ctx) != sp {
		t.Error("span not carried through context")
	}
	if got := TraceFromContext(ctx); got != "0123456789abcdef" {
		t.Errorf("trace = %q, want 0123456789abcdef", got)
	}
}

func TestTraceRecorderNilSafe(t *testing.T) {
	var r *TraceRecorder
	sp := r.Start("worker.shard", 0, nil)
	if sp != nil {
		t.Fatal("nil recorder must return nil span")
	}
	sp.SetAttr("k", "v") // must not panic
	sp.End()             // must not panic
	if sp.ID() != 0 {
		t.Error("nil span id != 0")
	}
	if r.Drain() != nil {
		t.Error("nil recorder drains non-nil")
	}
}

func TestTraceRecorderRecordsSubtree(t *testing.T) {
	r := NewTraceRecorder()
	root := r.Start("worker.shard", 0, map[string]string{"shard": "a1"})
	child := r.Start("worker.exec", root.ID(), nil)
	child.SetAttr("runs", "8")
	child.End()
	root.End()

	recs := r.Drain()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	// End order: child first, then root.
	if recs[0].Name != "worker.exec" || recs[1].Name != "worker.shard" {
		t.Fatalf("unexpected record order: %+v", recs)
	}
	if recs[0].Parent != recs[1].ID {
		t.Errorf("child parent = %d, want root id %d", recs[0].Parent, recs[1].ID)
	}
	if recs[1].Parent != 0 {
		t.Errorf("root parent = %d, want 0", recs[1].Parent)
	}
	if recs[0].Attrs["runs"] != "8" {
		t.Errorf("child attrs = %v", recs[0].Attrs)
	}
	if got := RootDurMs(recs); got != recs[1].DurMs {
		t.Errorf("RootDurMs = %d, want root's %d", got, recs[1].DurMs)
	}
	if again := r.Drain(); again != nil {
		t.Errorf("second drain = %v, want nil", again)
	}
}

func TestFoldSpansGraftsWorkerSubtree(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	dispatch := l.StartSpan("dispatch.shard", map[string]string{"shard": "a1"})

	// Worker-recorded subtree with ids that collide with the parent
	// log's (both start at 1) and offsets from a different anchor.
	recs := []SpanRec{
		{Name: "worker.exec", ID: 2, Parent: 1, StartMs: 1000, DurMs: 40},
		{Name: "worker.shard", ID: 1, Parent: 0, StartMs: 990, DurMs: 60},
	}
	l.FoldSpans(dispatch, "feedfacefeedface", recs)
	dispatch.End()

	var spans []Event
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		spans = append(spans, e)
	}
	if len(spans) != 3 {
		t.Fatalf("got %d records, want 3", len(spans))
	}
	byName := map[string]Event{}
	for _, e := range spans {
		byName[e.Name] = e
	}
	shard, exec, disp := byName["worker.shard"], byName["worker.exec"], byName["dispatch.shard"]

	if shard.Parent != disp.Span {
		t.Errorf("worker root parent = %d, want dispatch span %d", shard.Parent, disp.Span)
	}
	if exec.Parent != shard.Span {
		t.Errorf("worker.exec parent = %d, want folded worker.shard id %d", exec.Parent, shard.Span)
	}
	ids := map[uint64]bool{shard.Span: true, exec.Span: true, disp.Span: true}
	if len(ids) != 3 || ids[0] {
		t.Errorf("folded ids must be unique and non-zero: %v", ids)
	}
	for _, e := range []Event{shard, exec} {
		if e.Trace != "feedfacefeedface" {
			t.Errorf("%s trace = %q, want feedfacefeedface", e.Name, e.Trace)
		}
	}
	// Re-anchoring preserves worker-relative offsets: exec started 10ms
	// after the shard root on the worker clock.
	if d := exec.TSMillis - shard.TSMillis; d != 10 {
		t.Errorf("relative offset after fold = %d ms, want 10", d)
	}
	// The subtree root's end maps to fold time, so folded timestamps can
	// never land in this log's future.
	if end := shard.TSMillis + shard.DurMs; end > l.now() {
		t.Errorf("folded root ends at %d, after log now %d", end, l.now())
	}
}

func TestFoldSpansNilAndEmpty(t *testing.T) {
	var l *EventLog
	l.FoldSpans(nil, "t", []SpanRec{{Name: "x", ID: 1}}) // must not panic
	var buf bytes.Buffer
	l2 := NewEventLog(&buf)
	l2.FoldSpans(nil, "t", nil)
	l2.Flush()
	if buf.Len() != 0 {
		t.Errorf("folding no records wrote %q", buf.String())
	}
}

// Satellite: every record must reach the sink as a complete NDJSON line
// without an explicit Flush, so a process killed mid-campaign leaves a
// parseable log.
func TestEventLogFlushesPerRecord(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	l.Emit("dispatch.retry", map[string]string{"shard": "a1"})
	sp := l.StartSpan("campaign.execute", nil)
	sp.End()
	// No Flush, no Close: both records must already be in the sink.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines before any flush, want 2:\n%q", len(lines), buf.String())
	}
	for _, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Errorf("unflushed line %q is not valid NDJSON: %v", line, err)
		}
	}
}

// Satellite: a histogram whose observations all exceed the top bound
// must clamp every quantile to the last finite bound instead of
// reporting garbage from the +Inf bucket.
func TestQuantileAllInOverflow(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("over_seconds", []float64{0.1, 1})
	for i := 0; i < 50; i++ {
		h.Observe(100)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := h.Quantile(q); got != 1 {
			t.Errorf("Quantile(%v) = %g, want 1 (top bound clamp)", q, got)
		}
	}
	if got := quantileFromCounts(nil, nil, 0.5); got != 0 {
		t.Errorf("quantileFromCounts with no bounds = %g, want 0", got)
	}
}

func TestLiveSnapshotLifecycle(t *testing.T) {
	tel := New(Config{})
	l := tel.Live
	sub := l.Subscribe()
	defer l.Unsubscribe(sub)

	c := tel.StartCampaign("permeability", "fleet", "00000000000000ff", 100)
	tel.PlanShards(4, true)
	tel.RunDone(c)
	tel.RunDone(c)
	tel.RetryShard(ShardStatus{ID: "s1", Worker: "agent-1", State: "retrying", Runs: 25, Attempts: 1})
	l.WorkerJoin("agent-1", 42)
	tel.FinishShard(ShardStatus{ID: "s1", Worker: "agent-1", State: "done",
		Runs: 25, WallMs: 30, QueueMs: 5, ExecMs: 20, NetMs: 5}, 30*time.Millisecond, true)

	snap := l.Snapshot()
	if snap.Campaign == nil {
		t.Fatal("no campaign in snapshot")
	}
	cp := snap.Campaign
	if cp.Campaign != "permeability" || cp.Executor != "fleet" || cp.Trace != "00000000000000ff" {
		t.Errorf("campaign header = %+v", cp)
	}
	if cp.RunsTotal != 100 || cp.RunsDone != 2 || cp.Retries != 1 {
		t.Errorf("run counters = %+v", cp)
	}
	if cp.ShardsTotal != 4 || cp.ShardsDone != 1 {
		t.Errorf("shard counters = %+v", cp)
	}
	// The registry series move with the record.
	runs := tel.Reg.Counter("repro_campaign_runs_done_total", L("campaign", "permeability")).Value()
	if runs != 2 || tel.DispatchRetries.Value() != 1 || tel.ShardsDone.Value() != 1 ||
		tel.DispatchDone.Value() != 1 || tel.DispatchShards.Value() != 4 || tel.ShardDur.Count() != 1 {
		t.Errorf("registry disagrees with the record: runs %d retries %d shards done %d/%d planned %d durations %d",
			runs, tel.DispatchRetries.Value(), tel.ShardsDone.Value(), tel.DispatchDone.Value(),
			tel.DispatchShards.Value(), tel.ShardDur.Count())
	}
	if len(snap.Shards) != 1 || snap.Shards[0].Campaign != "permeability" {
		t.Errorf("shards = %+v (campaign must auto-fill)", snap.Shards)
	}
	if len(snap.Workers) != 1 || snap.Workers[0].State != "up" {
		t.Errorf("workers = %+v", snap.Workers)
	}

	if s, ok := l.SlowestShard(); !ok || s.ID != "s1" || s.QueueMs != 5 {
		t.Errorf("SlowestShard = %+v, %v", s, ok)
	}

	l.WorkerLost("agent-1")
	tel.EndCampaign(c)
	snap = l.Snapshot()
	if snap.Campaign != nil {
		t.Error("campaign still current after EndCampaign")
	}
	if len(snap.Done) != 1 || snap.Done[0].Runs != 2 || snap.Done[0].Retries != 1 {
		t.Errorf("done = %+v", snap.Done)
	}
	if snap.Workers[0].State != "lost" {
		t.Errorf("worker state = %q, want lost", snap.Workers[0].State)
	}

	// The subscriber must have received at least one snapshot, and the
	// payload must be valid JSON.
	select {
	case b := <-sub:
		var s Snapshot
		if err := json.Unmarshal(b, &s); err != nil {
			t.Errorf("published snapshot is not JSON: %v", err)
		}
	case <-time.After(time.Second):
		t.Error("no snapshot published to subscriber")
	}
}

func TestLiveNilSafe(t *testing.T) {
	var l *Live
	l.UpdateShard(ShardStatus{ID: "0"})
	l.WorkerJoin("w", 1)
	l.WorkerLost("w")
	if _, ok := l.SlowestShard(); ok {
		t.Error("nil Live reports a slowest shard")
	}
	if l.Subscribe() != nil {
		t.Error("nil Live returns a subscription")
	}
	// Entry points on a built Telemetry with no running campaign must
	// not panic either.
	tel := New(Config{})
	tel.RunDone(nil)
	tel.PlanShards(1, false)
	tel.FinishShard(ShardStatus{ID: "0"}, time.Second, false)
	tel.RetryShard(ShardStatus{ID: "0"})
	tel.EndCampaign(nil)
}
