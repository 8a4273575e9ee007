package experiment

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// TelemetryFlags carries the observability flags shared by cmd/inject
// and cmd/reproduce.
type TelemetryFlags struct {
	// ObsAddr, when non-empty, serves the diagnostics HTTP endpoint
	// (/metrics, /healthz, /debug/vars, /debug/pprof) on this address.
	ObsAddr string
	// EventsOut, when non-empty, streams NDJSON span/event records to
	// this file ("-" selects stderr).
	EventsOut string
	// Progress enables the live stderr progress line.
	Progress bool
}

// StartTelemetry installs the process-wide telemetry for a campaign
// command and returns its shutdown function. The registry is always
// installed — counting retries, cache traffic and shard movement is
// cheap and feeds the end-of-run retry summary and the -bench-out
// extras — while the exposure surfaces (HTTP endpoint, event stream,
// progress line) are attached only when their flags ask for them.
func StartTelemetry(f TelemetryFlags, stderr io.Writer) (func(), error) {
	cfg := obs.Config{}
	var eventsFile *os.File
	switch f.EventsOut {
	case "":
	case "-":
		cfg.EventSink = stderr
	default:
		file, err := os.Create(f.EventsOut)
		if err != nil {
			return nil, fmt.Errorf("-events-out %q: %w", f.EventsOut, err)
		}
		eventsFile = file
		cfg.EventSink = file
	}
	if f.Progress {
		cfg.ProgressSink = stderr
		cfg.ProgressInterval = time.Second
	}

	tel := obs.New(cfg)
	obs.Install(tel)

	var stopServer func()
	if f.ObsAddr != "" {
		addr, stop, err := tel.Serve(f.ObsAddr)
		if err != nil {
			if eventsFile != nil {
				eventsFile.Close()
			}
			obs.Install(nil)
			return nil, fmt.Errorf("-obs-addr %q: %w", f.ObsAddr, err)
		}
		stopServer = stop
		fmt.Fprintf(stderr, "telemetry: serving /metrics /healthz /dash /events /debug/vars /debug/pprof on http://%s\n", addr)
	}

	return func() {
		tel.Close()
		if stopServer != nil {
			stopServer()
		}
		if eventsFile != nil {
			eventsFile.Close()
		}
	}, nil
}

// PrintRetrySummary reports, per campaign, how many shards the
// dispatcher re-dispatched — movement that otherwise exists only as
// backoff sleeps invisible in any report. Campaigns without retries are
// folded into one clean line.
func PrintRetrySummary(w io.Writer, col *campaign.Collector) {
	if col == nil {
		return
	}
	rows := col.Rows()
	if len(rows) == 0 {
		return
	}
	var parts []string
	var shardRetries, reconnects, stragglers int64
	for _, r := range rows {
		shardRetries += r.ShardRetries
		reconnects += r.FleetReconnects
		stragglers += r.StragglerRedispatches
		if r.ShardRetries > 0 || r.FleetReconnects > 0 || r.StragglerRedispatches > 0 {
			line := fmt.Sprintf("%s: %d shard re-dispatches", r.Campaign, r.ShardRetries)
			// Fleet movement appends only when present, so non-fleet
			// invocations keep the original summary shape exactly.
			if r.FleetReconnects > 0 {
				line += fmt.Sprintf(", %d fleet reconnects", r.FleetReconnects)
			}
			if r.StragglerRedispatches > 0 {
				line += fmt.Sprintf(", %d straggler re-dispatches", r.StragglerRedispatches)
			}
			parts = append(parts, line)
		}
	}
	if len(parts) == 0 {
		fmt.Fprintln(w, "retry summary: no shard re-dispatches")
		return
	}
	total := fmt.Sprintf("%d shard re-dispatches", shardRetries)
	if reconnects > 0 {
		total += fmt.Sprintf(", %d fleet reconnects", reconnects)
	}
	if stragglers > 0 {
		total += fmt.Sprintf(", %d straggler re-dispatches", stragglers)
	}
	fmt.Fprintf(w, "retry summary: %s (total: %s)\n", strings.Join(parts, "; "), total)
	printStragglerAttribution(w)
}

// printStragglerAttribution appends one line naming the slowest shard
// of the last campaign and where its time went (queue wait vs worker
// execution vs network), derived from the merged trace's phase
// attribution. Silent when no dispatch recorded phase data — plain
// serial runs keep the summary shape unchanged.
func printStragglerAttribution(w io.Writer) {
	tel := obs.Active()
	if tel == nil {
		return
	}
	s, ok := tel.Live.SlowestShard()
	if !ok || (s.QueueMs == 0 && s.NetMs == 0) {
		// Without a queue/exec/net split (in-process execution) the wall
		// time alone adds nothing the timing table doesn't already say.
		return
	}
	where := s.Worker
	if where == "" {
		where = "local"
	}
	fmt.Fprintf(w, "slowest shard: %s (%s) %d ms on %s — queue %d ms, exec %d ms, net %d ms\n",
		s.ID, s.Campaign, s.WallMs, where, s.QueueMs, s.ExecMs, s.NetMs)
}
