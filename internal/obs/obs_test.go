package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total")
	labeled := r.Counter("test_labeled_total", L("k", "v"))
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				labeled.Add(2)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Errorf("counter = %d, want %d", got, goroutines*per)
	}
	if got := labeled.Value(); got != 2*goroutines*per {
		t.Errorf("labeled counter = %d, want %d", got, 2*goroutines*per)
	}
	// Same name+labels resolves to the same series regardless of
	// label order at the call site.
	r2 := r.Counter("test_two_labels_total", L("a", "1"), L("b", "2"))
	r2.Inc()
	if got := r.Counter("test_two_labels_total", L("b", "2"), L("a", "1")).Value(); got != 1 {
		t.Errorf("label order changed series identity: got %d, want 1", got)
	}
}

func TestCounterMonotone(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3) // ignored: counters never go down
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
}

func TestNilInstrumentsAreInert(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
		l *EventLog
		s *Span
		p *Progress
		r *Registry
		n *Telemetry
	)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveSince(time.Now())
	l.Emit("x", nil)
	l.Flush()
	s.End()
	s.Child("y", nil).End()
	lc := n.StartCampaign("x", "serial", "", 1)
	n.RunDone(lc)
	n.PlanShards(1, true)
	n.FinishShard(ShardStatus{ID: "0"}, time.Second, true)
	n.RetryShard(ShardStatus{ID: "0"})
	n.EndCampaign(lc)
	p.Stop()
	n.Close()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil instruments reported non-zero values")
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", nil) != nil {
		t.Error("nil registry returned non-nil instruments")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry returned a snapshot")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Errorf("nil registry WritePrometheus: %v", err)
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2, 100} {
		h.Observe(v)
	}
	want := []int64{2, 1, 1, 2} // <=0.01, <=0.1, <=1, +Inf
	got := h.Counts()
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if got := h.sum.load(); math.Abs(got-102.565) > 1e-9 {
		t.Errorf("sum = %g, want 102.565", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", []float64{1, 2, 4, 8})
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	// 10 samples uniformly in (1,2]: p50 should interpolate to ~1.5.
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
	}
	if got := h.Quantile(0.5); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("p50 = %g, want 1.5", got)
	}
	// Overflow samples clamp to the top bound.
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	if got := h.Quantile(0.99); got != 8 {
		t.Errorf("p99 = %g, want 8 (top bound)", got)
	}
}

func TestSpanNesting(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	root := l.StartSpan("campaign.execute", map[string]string{"campaign": "permeability"})
	child := root.Child("shard.run", map[string]string{"shard": "a1"})
	grand := child.Child("run", nil)
	l.Emit("retry", map[string]string{"attempt": "2"})
	grand.End()
	child.End()
	root.End()
	l.Flush()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d records, want 4:\n%s", len(lines), buf.String())
	}
	var evs []Event
	for _, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		evs = append(evs, e)
	}
	// Records: retry event first (spans emit on End), then spans
	// innermost-first.
	if evs[0].Kind != "event" || evs[0].Name != "retry" {
		t.Errorf("first record = %+v, want retry event", evs[0])
	}
	byName := map[string]Event{}
	for _, e := range evs[1:] {
		if e.Kind != "span" {
			t.Errorf("record %+v kind = %q, want span", e, e.Kind)
		}
		byName[e.Name] = e
	}
	rootEv, childEv, grandEv := byName["campaign.execute"], byName["shard.run"], byName["run"]
	if rootEv.Parent != 0 {
		t.Errorf("root parent = %d, want 0", rootEv.Parent)
	}
	if childEv.Parent != rootEv.Span {
		t.Errorf("child parent = %d, want root id %d", childEv.Parent, rootEv.Span)
	}
	if grandEv.Parent != childEv.Span {
		t.Errorf("grandchild parent = %d, want child id %d", grandEv.Parent, childEv.Span)
	}
	ids := map[uint64]bool{rootEv.Span: true, childEv.Span: true, grandEv.Span: true}
	if len(ids) != 3 || ids[0] {
		t.Errorf("span ids not unique and non-zero: %v", ids)
	}
	if rootEv.Attrs["campaign"] != "permeability" {
		t.Errorf("root attrs = %v", rootEv.Attrs)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("repro_campaigns_total").Add(3)
	r.Counter("repro_campaign_runs_done_total", L("campaign", "permeability")).Add(640)
	r.Gauge("repro_golden_cache_size").Set(12)
	h := r.Histogram("repro_shard_duration_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP repro_campaigns_total Campaigns executed end to end.\n",
		"# TYPE repro_campaigns_total counter\n",
		"repro_campaigns_total 3\n",
		"repro_campaign_runs_done_total{campaign=\"permeability\"} 640\n",
		"# TYPE repro_golden_cache_size gauge\n",
		"repro_golden_cache_size 12\n",
		"# TYPE repro_shard_duration_seconds histogram\n",
		"repro_shard_duration_seconds_bucket{le=\"0.1\"} 1\n",
		"repro_shard_duration_seconds_bucket{le=\"1\"} 2\n",
		"repro_shard_duration_seconds_bucket{le=\"+Inf\"} 3\n",
		"repro_shard_duration_seconds_sum 5.55\n",
		"repro_shard_duration_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotDeltaMerge(t *testing.T) {
	worker := NewRegistry()
	worker.Counter("repro_worker_runs_total", L("campaign", "permeability")).Add(10)
	wh := worker.Histogram("repro_run_duration_seconds", []float64{0.1, 1})
	wh.Observe(0.05)

	var d DeltaTracker
	first := d.Delta(worker)
	if len(first) != 2 {
		t.Fatalf("first delta = %d series, want 2: %+v", len(first), first)
	}

	parent := NewRegistry()
	parent.Merge(first)

	// Nothing moved: empty delta, merge is a no-op.
	if extra := d.Delta(worker); len(extra) != 0 {
		t.Errorf("idle delta = %+v, want none", extra)
	}

	worker.Counter("repro_worker_runs_total", L("campaign", "permeability")).Add(5)
	wh.Observe(0.5)
	parent.Merge(d.Delta(worker))

	if got := parent.Counter("repro_worker_runs_total", L("campaign", "permeability")).Value(); got != 15 {
		t.Errorf("merged counter = %d, want 15", got)
	}
	ph := parent.Histogram("repro_run_duration_seconds", []float64{0.1, 1})
	if got := ph.Count(); got != 2 {
		t.Errorf("merged histogram count = %d, want 2", got)
	}
	wantCounts := []int64{1, 1, 0}
	for i, c := range ph.Counts() {
		if c != wantCounts[i] {
			t.Errorf("merged bucket[%d] = %d, want %d", i, c, wantCounts[i])
		}
	}
	// Gauges never forward.
	worker.Gauge("repro_golden_cache_size").Set(99)
	for _, s := range d.Delta(worker) {
		if strings.Contains(s.Name, "cache_size") {
			t.Errorf("gauge leaked into delta: %+v", s)
		}
	}
}

func TestProgressLine(t *testing.T) {
	var buf bytes.Buffer
	tel := New(Config{ProgressSink: &buf, ProgressInterval: time.Nanosecond}) // render on every update
	a := tel.StartCampaign("permeability", "sharded", "", 100)
	tel.PlanShards(4, false)
	for i := 0; i < 25; i++ {
		tel.RunDone(a)
	}
	tel.FinishShard(ShardStatus{ID: "0", State: "done", Runs: 25}, time.Millisecond, false)
	tel.RetryShard(ShardStatus{ID: "1", State: "retrying", Runs: 25, Attempts: 1})
	tel.EndCampaign(a)
	out := buf.String()
	for _, want := range []string{"[permeability]", "shards 1/4", "runs 25/100", "25.0%", "retries 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress line missing %q:\n%q", want, out)
		}
	}
	// Retries are counted per campaign: the next campaign's line starts
	// again from zero.
	b := tel.StartCampaign("b", "sharded", "", 10)
	tel.RunDone(b)
	tel.EndCampaign(b)
	tel.Close()
	out = buf.String()
	if last := out[strings.LastIndex(out, "\r"):]; !strings.Contains(last, "[b]") || !strings.Contains(last, "retries 0") {
		t.Errorf("second campaign's final line = %q, want [b] with retries 0", last)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("Stop did not terminate the line")
	}
	// Rate limiting: a 1h interval renders at most the forced final line.
	var buf2 bytes.Buffer
	tel2 := New(Config{ProgressSink: &buf2, ProgressInterval: time.Hour})
	x := tel2.StartCampaign("x", "sharded", "", 1000)
	for i := 0; i < 1000; i++ {
		tel2.RunDone(x)
	}
	tel2.Close()
	if n := strings.Count(buf2.String(), "\r"); n > 1 {
		t.Errorf("rate-limited progress rendered %d times, want <= 1", n)
	}
}

// TestCampaignRecordConcurrent drives one campaign's entry points from
// several goroutines while the line renders on every update; the final
// line must account for every run and shard.
func TestCampaignRecordConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tel := New(Config{ProgressSink: &buf, ProgressInterval: time.Nanosecond})
	const workers, runs = 4, 250
	c := tel.StartCampaign("permeability", "sharded", "", workers*runs)
	tel.PlanShards(workers, false)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				tel.RunDone(c)
			}
			tel.FinishShard(ShardStatus{ID: strconv.Itoa(w), State: "done", Runs: runs}, time.Millisecond, false)
		}()
	}
	wg.Wait()
	tel.EndCampaign(c)
	tel.Close()
	out := buf.String()
	if last := out[strings.LastIndex(out, "\r"):]; !strings.Contains(last, "shards 4/4 runs 1000/1000") {
		t.Errorf("final line = %q, want shards 4/4 runs 1000/1000", last)
	}
	if snap := tel.Live.Snapshot(); len(snap.Done) != 1 || snap.Done[0].Runs != workers*runs || len(snap.Shards) != workers {
		t.Errorf("Live after the campaign = %+v", snap)
	}
}

// TestRunDoneDoesNotAllocate pins the per-run path with telemetry on —
// with and without a rate-limited progress line — at zero allocations.
func TestRunDoneDoesNotAllocate(t *testing.T) {
	for _, cfg := range []Config{{}, {ProgressSink: io.Discard, ProgressInterval: time.Hour}} {
		tel := New(cfg)
		c := tel.StartCampaign("permeability", "sharded", "", 1000)
		if n := testing.AllocsPerRun(1000, func() { tel.RunDone(c) }); n != 0 {
			t.Errorf("progress %v: RunDone makes %v allocations per run, want 0", cfg.ProgressSink != nil, n)
		}
		tel.EndCampaign(c)
	}
}

func TestInstallAndEnsureActive(t *testing.T) {
	prev := Install(nil)
	defer Install(prev)

	if Active() != nil {
		t.Fatal("Active() != nil after Install(nil)")
	}
	tel := EnsureActive()
	if tel == nil || Active() != tel {
		t.Fatal("EnsureActive did not install a telemetry")
	}
	if EnsureActive() != tel {
		t.Error("second EnsureActive replaced the active telemetry")
	}
	tel.Campaigns.Inc()
	if tel.Reg.Counter("repro_campaigns_total").Value() != 1 {
		t.Error("pre-resolved instrument not backed by the registry")
	}
	tel.Close()
}

// BenchmarkDisabledHotPath pins the disabled-telemetry fast path at
// zero allocations: one atomic load, a nil check, and nil-safe method
// calls that return immediately.
func BenchmarkDisabledHotPath(b *testing.B) {
	prev := Install(nil)
	defer Install(prev)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tel := Active(); tel != nil {
			tel.Campaigns.Inc()
			tel.RunDur.Observe(1)
			tel.RunDone(nil)
		}
	}
	if testing.AllocsPerRun(100, func() {
		if tel := Active(); tel != nil {
			tel.RigAcquires.Inc()
			tel.ShardDur.Observe(0.5)
		}
	}) != 0 {
		b.Fatal("disabled telemetry path allocates")
	}
}

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Count reads the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}
