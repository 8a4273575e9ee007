package experiment

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// fullTelemetry builds a Telemetry with every exposure surface active —
// event stream, progress line — so the determinism arms exercise the
// instrumented paths, not just a bare registry. Sinks are discarded;
// only the side effects on campaign output matter here.
func fullTelemetry() *obs.Telemetry {
	return obs.New(obs.Config{
		EventSink:        io.Discard,
		ProgressSink:     io.Discard,
		ProgressInterval: time.Millisecond,
	})
}

// permWithTelemetry runs the 6-per-input permeability campaign under
// opts with full telemetry installed and returns its fingerprint.
func permWithTelemetry(t *testing.T, name string, opts Options) string {
	t.Helper()
	ClearGoldenCache()
	tel := fullTelemetry()
	obs.Install(tel)
	res, err := EstimatePermeability(context.Background(), opts, 6)
	tel.Close()
	obs.Install(nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return permeabilityFingerprint(t, res)
}

// permWithoutTelemetry is the reference arm: telemetry fully disabled.
func permWithoutTelemetry(t *testing.T) string {
	t.Helper()
	ClearGoldenCache()
	base, err := EstimatePermeability(context.Background(), determinismOpts(1), 6)
	if err != nil {
		t.Fatal(err)
	}
	return permeabilityFingerprint(t, base)
}

// TestTelemetryDoesNotPerturbCampaigns is the tentpole acceptance
// gate: campaign results must be byte-identical with telemetry on and
// off, across every executor — serial, sharded at 1/2/8 shards, and
// real worker subprocesses (which additionally forward metrics frames
// over the wire protocol).
func TestTelemetryDoesNotPerturbCampaigns(t *testing.T) {
	prev := obs.Install(nil)
	defer obs.Install(prev)
	ref := permWithoutTelemetry(t)

	run := func(name string, opts Options) {
		t.Helper()
		if fp := permWithTelemetry(t, name, opts); fp != ref {
			t.Errorf("%s with telemetry differs from reference without:\n--- off ---\n%s\n--- on ---\n%s",
				name, ref, fp)
		}
	}
	run("serial", determinismOpts(1))
	for _, shards := range []int{1, 2, 8} {
		opts := determinismOpts(4)
		opts.Shards = shards
		run(fmt.Sprintf("sharded-%d", shards), opts)
	}

	// Subprocess dispatch: workers run EnsureActive telemetry and ship
	// metric deltas back over proto-v2 envelopes.
	var log syncLog
	run("subprocess", subprocessOpts(t, 2, 4, WorkerSpec{PerInput: 6}, "", &log))
}

// TestTelemetryDoesNotPerturbChaosFleet holds the same gate on a fleet
// whose agents corrupt and reset frames: telemetry counts every
// integrity failure and re-dispatch while the coordinator heals them,
// and the healed output must still match the reference.
func TestTelemetryDoesNotPerturbChaosFleet(t *testing.T) {
	prev := obs.Install(nil)
	defer obs.Install(prev)
	ref := permWithoutTelemetry(t)

	var log syncLog
	tap := netChaos(99, 4)
	opts := chaosFleetOpts(t, determinismOpts(4), WorkerSpec{PerInput: 6}, tap, &log)
	if fp := permWithTelemetry(t, "chaos fleet", opts); fp != ref {
		t.Errorf("chaos fleet with telemetry differs from reference without:\n--- off ---\n%s\n--- on ---\n%s\nlog:\n%s",
			ref, fp, log.String())
	}
	checkChaosHealed(t, "telemetry", tap, log.String())
}

// scrapeValue fetches the /metrics endpoint and returns the value of
// one series (exact rendered name, labels included) plus whether it was
// present at all.
func scrapeValue(t *testing.T, url, series string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape read: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("scrape content type %q", ct)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || name != series {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("series %s has unparsable value %q", series, val)
		}
		return f, true
	}
	return 0, false
}

// TestMetricsEndpointDuringCampaign scrapes /metrics while a sharded
// campaign runs and asserts the shard/run counters behave like a real
// monitoring target: monotone nondecreasing between scrapes, and at the
// end exactly equal to the plan size and shard count.
func TestMetricsEndpointDuringCampaign(t *testing.T) {
	prev := obs.Install(nil)
	defer obs.Install(prev)

	tel := obs.New(obs.Config{})
	obs.Install(tel)
	defer func() { obs.Install(nil); tel.Close() }()

	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	ClearGoldenCache()
	opts := determinismOpts(4)
	opts.Shards = 8

	type outcome struct {
		res *PermeabilityResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := EstimatePermeability(context.Background(), opts, 6)
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
		t.Fatal(out.err)
	}

	final, ok := scrapeValue(t, srv.URL, runsDone)
	if !ok {
		t.Fatalf("final scrape is missing %s", runsDone)
	}
	if final < last {
		t.Fatalf("final runs-done %g below mid-campaign scrape %g", final, last)
	}
	if int(final) != out.res.TotalRuns {
		t.Errorf("runs-done counter %g, want plan size %d", final, out.res.TotalRuns)
	}
	planned, okP := scrapeValue(t, srv.URL, "repro_shards_total")
	doneN, okD := scrapeValue(t, srv.URL, "repro_shards_done_total")
	if !okP || !okD {
		t.Fatalf("shard counters missing: planned=%v done=%v", okP, okD)
	}
	if planned == 0 || planned != doneN {
		t.Errorf("shards done %g of planned %g; want all done and nonzero", doneN, planned)
	}

	// The sibling endpoints must answer, too.
	for _, path := range []string{"/healthz", "/debug/vars"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s returned %d", path, resp.StatusCode)
		}
	}
}

// TestPrintRetrySummary pins the end-of-command retry report in both
// shapes: quiet campaigns fold into one line, noisy ones enumerate.
func TestPrintRetrySummary(t *testing.T) {
	var quiet strings.Builder
	col := campaign.NewCollector()
	col.ObserveExt("calm", 10, time.Second, campaign.Extras{})
	PrintRetrySummary(&quiet, col)
	if got := quiet.String(); !strings.Contains(got, "no shard re-dispatches") {
		t.Errorf("quiet summary = %q", got)
	}

	var noisy strings.Builder
	col2 := campaign.NewCollector()
	col2.ObserveExt("stormy", 10, time.Second, campaign.Extras{ShardRetries: 2})
	col2.ObserveExt("calm", 10, time.Second, campaign.Extras{})
	PrintRetrySummary(&noisy, col2)
	got := noisy.String()
	for _, want := range []string{"stormy: 2 shard re-dispatches", "total: 2 shard re-dispatches"} {
		if !strings.Contains(got, want) {
			t.Errorf("summary %q missing %q", got, want)
		}
	}
	if strings.Contains(got, "calm:") {
		t.Errorf("summary %q should not enumerate the quiet campaign", got)
	}

	// Nil and empty collectors stay silent.
	var empty strings.Builder
	PrintRetrySummary(&empty, nil)
	PrintRetrySummary(&empty, campaign.NewCollector())
	if empty.Len() != 0 {
		t.Errorf("nil/empty collector wrote %q", empty.String())
	}
}
