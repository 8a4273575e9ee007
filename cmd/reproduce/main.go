// Command reproduce regenerates every table and figure of the paper's
// evaluation, in two modes:
//
//   - paper: feed the published Table 1 permeabilities into the analysis
//     framework and regenerate the derived artifacts exactly (Tables 2,
//     3, 5; Figures 4, 5, 6).
//   - measured: run the full fault-injection campaigns on the
//     reimplemented target and regenerate everything from scratch
//     (Tables 1–5, Figures 3–6), at the paper's campaign sizes.
//
// Usage:
//
//	reproduce [-mode both|paper|measured] [-quick] [-exact] [-artifact all|table1|...|figure6]
//
// With -dispatch (or -checkpoint, which implies it) the measured-mode
// campaigns run their shards in worker subprocesses — re-execs of this
// binary in a hidden worker mode — with per-shard deadlines, retries
// and integrity checks; -checkpoint journals finished shards so a
// killed reproduction resumes where it stopped. Results are
// byte-identical either way.
//
// With -fleet (worker-agent addresses, started with reproduce
// -worker-listen) the shards are dispatched over the network with
// heartbeats, straggler re-dispatch and reconnect; an unreachable
// fleet degrades to subprocess and then in-process execution, and a
// -checkpoint journal resumes across transports.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/analytic"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/ea"
	"repro/internal/experiment"
	"repro/internal/paper"
	"repro/internal/report"
	"repro/internal/sut"
	"repro/internal/target"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
}

type sizes struct {
	perInput  int // permeability campaign, per module input
	perSignal int // input-coverage campaign, per system input
	ram       int // internal campaign RAM locations
	stack     int // internal campaign stack locations
}

func fullSizes() sizes  { return sizes{perInput: 2000, perSignal: 2000, ram: 150, stack: 50} }
func quickSizes() sizes { return sizes{perInput: 100, perSignal: 100, ram: 30, stack: 15} }

func run() error {
	mode := flag.String("mode", "both", "paper, measured, or both")
	targetName := flag.String("target", "",
		"registered system under test (reproduce regenerates the paper's artifacts, so only the arrestment target is valid; see inject -target for campaigns on other targets)")
	artifact := flag.String("artifact", "all", "one of all, table1..table5, figure3..figure6, extensions")
	quick := flag.Bool("quick", false, "reduced campaign sizes for a fast pass")
	exact := flag.Bool("exact", false,
		"run full fixed-size grids instead of adaptive pruning + early stopping (measured mode)")
	seed := flag.Int64("seed", 1, "campaign seed")
	workers := flag.Int("workers", 8, "campaign parallelism")
	shards := flag.Int("shards", 0, "plan shards (0 = default)")
	benchOut := flag.String("bench-out", "BENCH_campaigns.json",
		"campaign timing report path (measured mode; empty disables)")
	dispatchMode := flag.Bool("dispatch", false,
		"run measured-mode shards in fault-tolerant worker subprocesses")
	checkpoint := flag.String("checkpoint", "",
		"shard journal enabling kill/resume (implies -dispatch)")
	shardTimeout := flag.Duration("shard-timeout", 0,
		"per-shard worker deadline, e.g. 2m (0 = default)")
	retries := flag.Int("retries", 0,
		"shard retry budget (0 = default, -1 disables)")
	workerShard := flag.Bool("worker-shard", false,
		"internal: serve campaign shards to a parent dispatcher on stdin/stdout")
	fleet := flag.String("fleet", "",
		"comma-separated worker-agent addresses (host:port) for networked shard dispatch (implies -dispatch)")
	fleetListen := flag.String("fleet-listen", "",
		"also accept worker-agent registrations on this address (coordinator side of -worker-connect)")
	heartbeat := flag.Duration("heartbeat", 0,
		"fleet worker heartbeat interval, e.g. 500ms (0 = default, negative disables)")
	workerListen := flag.String("worker-listen", "",
		"run as a networked worker agent serving campaign shards on this address")
	workerConnect := flag.String("worker-connect", "",
		"run as a networked worker agent registering with a coordinator at this address")
	obsAddr := flag.String("obs-addr", "",
		"serve /metrics, /healthz, the live /dash dashboard, the /events SSE stream, /debug/vars and /debug/pprof on this address (e.g. localhost:9090)")
	eventsOut := flag.String("events-out", "",
		"stream NDJSON trace span/event records to this file (- for stderr); analyze with adaptcheck -mode trace")
	progress := flag.Bool("progress", false,
		"live campaign progress line on stderr (~1 Hz)")
	flag.Parse()
	if err := validateSelection(*mode, *artifact); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := experiment.ValidateFleetFlags(*fleet, *fleetListen, *workerListen, *workerConnect, *heartbeat, *workerShard); err != nil {
		return err
	}
	if *workerShard {
		return experiment.ServeWorker(ctx, os.Getenv(experiment.WorkerSpecEnv), os.Stdin, os.Stdout)
	}
	if *workerListen != "" || *workerConnect != "" {
		stopTelemetry, err := experiment.StartTelemetry(experiment.TelemetryFlags{
			ObsAddr: *obsAddr, EventsOut: *eventsOut, Progress: *progress,
		}, os.Stderr)
		if err != nil {
			return err
		}
		defer stopTelemetry()
		return experiment.RunWorkerAgent(ctx, *workerListen, *workerConnect, os.Stderr)
	}
	fleetMode := *fleet != "" || *fleetListen != ""
	if err := experiment.ValidateDispatchFlags(*workers, *shards, *shardTimeout, *retries, *checkpoint, *dispatchMode || fleetMode); err != nil {
		return err
	}
	if tgt, err := sut.Lookup(*targetName); err != nil {
		return err
	} else if tgt.Name() != sut.DefaultTarget {
		return fmt.Errorf("-target %s: reproduce regenerates the paper's artifacts on the %s target only; use inject -target %s for campaigns on other targets",
			tgt.Name(), sut.DefaultTarget, tgt.Name())
	}
	stopTelemetry, err := experiment.StartTelemetry(experiment.TelemetryFlags{
		ObsAddr: *obsAddr, EventsOut: *eventsOut, Progress: *progress,
	}, os.Stderr)
	if err != nil {
		return err
	}
	defer stopTelemetry()

	want := func(name string) bool {
		if name == "extensions" {
			// The extension campaigns are opt-in, not part of "all".
			return *artifact == "extensions"
		}
		return *artifact == "all" || *artifact == name
	}
	sz := fullSizes()
	if *quick {
		sz = quickSizes()
	}

	if *mode == "paper" || *mode == "both" {
		header("PAPER MODE: analytical reproduction from the published Table 1")
		if err := paperMode(want); err != nil {
			return err
		}
	}
	if *mode == "measured" || *mode == "both" {
		header("MEASURED MODE: end-to-end reproduction on the reimplemented target")
		df := dispatchFlags{
			enabled:     *dispatchMode || *checkpoint != "" || fleetMode,
			checkpoint:  *checkpoint,
			timeout:     *shardTimeout,
			retries:     *retries,
			fleet:       *fleet,
			fleetListen: *fleetListen,
			heartbeat:   *heartbeat,
		}
		if err := measuredMode(ctx, want, sz, *seed, *workers, *shards, *exact, *benchOut, df); err != nil {
			return err
		}
	}
	return nil
}

// modes and artifacts are the accepted -mode and -artifact values.
var (
	modes     = []string{"paper", "measured", "both"}
	artifacts = []string{"all", "table1", "table2", "table3", "table4", "table5",
		"figure3", "figure4", "figure5", "figure6", "extensions"}
)

// validateSelection rejects an unknown -mode or -artifact before any
// work starts: an unknown artifact would otherwise match no section and
// print nothing but the selections.
func validateSelection(mode, artifact string) error {
	if !slices.Contains(modes, mode) {
		return fmt.Errorf("unknown -mode %q (want %s)", mode, strings.Join(modes, ", "))
	}
	if !slices.Contains(artifacts, artifact) {
		return fmt.Errorf("unknown -artifact %q (want %s)", artifact, strings.Join(artifacts, ", "))
	}
	return nil
}

func header(s string) {
	line := strings.Repeat("=", len(s))
	fmt.Printf("%s\n%s\n%s\n\n", line, s, line)
}

func section(s string) {
	fmt.Printf("--- %s %s\n\n", s, strings.Repeat("-", 60-len(s)))
}

// analyticalArtifacts renders everything derivable from a permeability
// matrix alone.
func analyticalArtifacts(want func(string) bool, p *core.Permeability) error {
	pr, err := analytic.Shared().Profile(p)
	if err != nil {
		return err
	}
	th := core.DefaultThresholds()

	if want("table1") {
		section("Table 1")
		fmt.Println(report.Table1(p))
	}
	if want("table2") {
		section("Table 2")
		fmt.Println(report.Table2(pr, core.SelectPA(pr, th)))
	}
	if want("table3") {
		section("Table 3")
		inPA := map[string]bool{}
		for _, n := range target.PASet() {
			inPA[n] = true
		}
		var rows []report.Table3Row
		for _, spec := range target.AllEASpecs() {
			a, err := ea.New(spec)
			if err != nil {
				return err
			}
			rows = append(rows, report.Table3Row{
				Name: spec.Name, Signal: spec.Signal,
				InEH: true, InPA: inPA[spec.Name], Cost: a.Cost(),
			})
		}
		fmt.Println(report.Table3(rows))
	}
	if want("figure4") {
		section("Figure 4")
		fig, err := report.Figure4(p, target.SigPulscnt, target.SigTOC2)
		if err != nil {
			return err
		}
		fmt.Println(fig)
	}
	if want("table5") {
		section("Table 5")
		fmt.Println(report.Table5(pr, target.SigTOC2))
	}
	if want("figure5") {
		section("Figure 5")
		fmt.Println(report.ProfileFigure(pr, core.ByExposure, "Exposure profile of target system"))
	}
	if want("figure6") {
		section("Figure 6")
		fmt.Println(report.ProfileFigure(pr, core.ByImpact, "Impact profile of target system"))
	}

	section("Selections")
	fmt.Println("EH :", core.SelectEH(p.System()).Selected())
	fmt.Println("PA :", core.SelectPA(pr, th).Selected())
	fmt.Println("EXT:", core.SelectExtended(pr, th).Selected())
	fmt.Println()
	return nil
}

func paperMode(want func(string) bool) error {
	return analyticalArtifacts(want, paper.Table1())
}

// dispatchFlags carries the subprocess-dispatcher selection from the
// command line into measured mode.
type dispatchFlags struct {
	enabled     bool
	checkpoint  string
	timeout     time.Duration
	retries     int
	fleet       string
	fleetListen string
	heartbeat   time.Duration
}

func measuredMode(ctx context.Context, want func(string) bool, sz sizes, seed int64, workers, shards int, exact bool, benchOut string, df dispatchFlags) error {
	opts := experiment.DefaultOptions(seed)
	opts.Workers = workers
	opts.Shards = shards
	opts.Adaptive = !exact // before SelfDispatch: the worker spec snapshots opts
	opts.Timings = campaign.NewCollector()
	if df.enabled {
		spec := experiment.WorkerSpec{
			PerInput: sz.perInput, PerSignal: sz.perSignal,
			RAMLocations: sz.ram, StackLocations: sz.stack,
			PerModel: sz.perSignal / 2, RecoveryRAM: sz.ram / 2, RecoveryStack: sz.stack / 2,
		}
		if df.fleet != "" || df.fleetListen != "" {
			addrs, err := experiment.ParseFleet(df.fleet)
			if err != nil {
				return err
			}
			if err := experiment.FleetDispatch(&opts, spec, "-worker-shard", addrs, df.fleetListen,
				df.heartbeat, df.checkpoint, df.timeout, df.retries, os.Stderr); err != nil {
				return err
			}
		} else if err := experiment.SelfDispatch(&opts, spec, "-worker-shard",
			df.checkpoint, df.timeout, df.retries, os.Stderr); err != nil {
			return err
		}
	}

	fmt.Fprintf(os.Stderr, "permeability campaign: %d per input x 13 inputs...\n", sz.perInput)
	perm, err := experiment.EstimatePermeability(ctx, opts, sz.perInput)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "  %d runs\n", perm.TotalRuns)

	if err := analyticalArtifacts(want, perm.Matrix); err != nil {
		return err
	}

	section("Paper vs measured permeabilities")
	fmt.Println(report.PermeabilityComparison(paper.Table1(), perm.Matrix))

	if want("table4") {
		fmt.Fprintf(os.Stderr, "input-coverage campaign: %d per signal x 4 signals...\n", sz.perSignal)
		cov, err := experiment.InputCoverage(ctx, opts, sz.perSignal, nil)
		if err != nil {
			return err
		}
		section("Table 4")
		fmt.Println(report.Table4(cov, target.EHSet()))
	}
	if want("figure3") {
		fmt.Fprintf(os.Stderr, "internal-coverage campaign: %d RAM + %d stack locations x %d cases...\n",
			sz.ram, sz.stack, len(opts.Cases))
		internal, err := experiment.InternalCoverage(ctx, opts, sz.ram, sz.stack)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "  %d runs\n", internal.Total.Runs)
		section("Figure 3")
		fmt.Println(report.Figure3(internal))
		section("Detection latency (internal error model)")
		fmt.Println(report.LatencySummary("time from first corruption to first detection", internal.Total.SetLatenciesMs))
	}
	if want("extensions") {
		fmt.Fprintln(os.Stderr, "extension campaigns: error-model sensitivity + recovery study...")
		ms, err := experiment.ErrorModelSensitivity(ctx, opts, sz.perSignal/2)
		if err != nil {
			return err
		}
		section("Extension: error-model sensitivity")
		fmt.Println(report.ModelSensitivity(ms))
		rs, err := experiment.RecoveryStudy(ctx, opts, sz.ram/2, sz.stack/2, nil)
		if err != nil {
			return err
		}
		section("Extension: recovery study")
		fmt.Println(report.RecoveryTable(rs))
	}
	experiment.PrintRetrySummary(os.Stderr, opts.Timings)
	if err := experiment.WriteCampaignTimings(benchOut, opts.Seed, opts.Workers, opts.Timings); err != nil {
		return err
	}
	if benchOut != "" {
		fmt.Fprintf(os.Stderr, "campaign timings written to %s\n", benchOut)
	}
	return nil
}
