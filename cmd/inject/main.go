// Command inject runs the fault-injection coverage campaigns:
//
//   - input: single transient bit-flips at the system inputs (the
//     paper's Section 6.2 experiment, Table 4), plus detection-latency
//     and subsumption analyses
//   - internal: periodic bit-flips in RAM and stack (the paper's
//     Section 7 experiment, Figure 3)
//   - models: coverage across five input error models (sensitivity
//     extension, DESIGN.md index A1)
//   - recovery: failure rates with and without containment (wrappers
//     vs module-internal hardening, guideline R2)
//   - matrix: placement robustness — every requested target crossed
//     with every error model (transient, stuck, burst, delay,
//     omission), reporting detection coverage per placement set
//
// Usage:
//
//	inject -campaign input [-per-signal 2000] [-target tank]
//	inject -campaign internal [-ram 150] [-stack 50] [-exact]
//	inject -campaign models [-per-signal 1000]
//	inject -campaign recovery [-ram 150] [-stack 50]
//	inject -campaign tightness [-per-signal 500]
//	inject -campaign integration [-per-signal 500]
//	inject -campaign matrix [-target tank,multiout] [-errors stuck,burst] [-per-cell 200]
//
// Every campaign accepts -target naming a registered system under test
// (default: the paper's arrestment system; matrix accepts a
// comma-separated list, empty meaning all registered) and -model
// promoting internal/model JSON system descriptions into runnable
// targets for this invocation. Unknown target or error-model names fail
// before any campaign work, listing what is registered.
//
// With -dispatch (or -checkpoint, which implies it) the campaign's
// shards run in worker subprocesses — re-execs of this binary in a
// hidden worker mode — with per-shard deadlines, retries and integrity
// checks; -checkpoint journals finished shards so a killed campaign
// resumes where it stopped. Results are byte-identical either way.
//
// With -fleet (a comma-separated list of worker-agent addresses,
// started with inject -worker-listen) shards are dispatched over the
// network instead, with heartbeats, straggler re-dispatch and
// reconnect on top of the same deadlines, retries and integrity
// checks; -fleet-listen additionally accepts agents that register
// themselves (inject -worker-connect). An unreachable fleet degrades
// to subprocess and then in-process execution. Results remain
// byte-identical, and a -checkpoint journal resumes across transports.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/analytic"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/sut"
	"repro/internal/target"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "inject:", err)
		os.Exit(1)
	}
}

// tightnessSteps is the MaxStep sweep of the tightness campaign. The
// worker spec ships the same list, so parent and worker plans agree.
func tightnessSteps() []model.Word { return []model.Word{2, 4, 8, 16, 32, 64} }

// splitList parses a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

// registerModels loads each JSON system description and registers it as
// a generic target, returning the raw documents for the worker spec.
func registerModels(paths []string) ([]json.RawMessage, error) {
	var raw []json.RawMessage
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		t, err := sut.RegisterModelJSON(data)
		if err != nil {
			return nil, fmt.Errorf("-model %s: %w", path, err)
		}
		fmt.Fprintf(os.Stderr, "registered target %q from %s\n", t.Name(), path)
		raw = append(raw, json.RawMessage(data))
	}
	return raw, nil
}

// validateMatrixFlags resolves the matrix target list and error-model
// menu before any campaign work, failing with the registered names.
func validateMatrixFlags(targets, errModels []string) error {
	for _, name := range targets {
		if _, err := sut.Lookup(name); err != nil {
			return err
		}
	}
	known := make(map[string]bool)
	for _, m := range experiment.MatrixErrorModels() {
		known[m] = true
	}
	for _, m := range errModels {
		if !known[m] {
			return fmt.Errorf("unknown error model %q (available: %s)",
				m, strings.Join(experiment.MatrixErrorModels(), ", "))
		}
	}
	return nil
}

func run() error {
	camp := flag.String("campaign", "input",
		"campaign: input, internal, models, recovery, tightness, integration or matrix")
	targetName := flag.String("target", "",
		"registered system under test (empty = arrestment; matrix: comma-separated list, empty = all)")
	modelPaths := flag.String("model", "",
		"comma-separated internal/model JSON files to register as targets")
	errModels := flag.String("errors", "",
		"matrix campaign error models, comma-separated (empty = all: transient, stuck, burst, delay, omission)")
	perSignal := flag.Int("per-signal", 2000, "injections per system input (input campaign)")
	perCell := flag.Int("per-cell", 200, "injections per target x error-model cell (matrix campaign)")
	ram := flag.Int("ram", 150, "RAM locations (internal campaign)")
	stack := flag.Int("stack", 50, "stack locations (internal campaign)")
	seed := flag.Int64("seed", 1, "campaign seed")
	workers := flag.Int("workers", 8, "campaign parallelism")
	shards := flag.Int("shards", 0, "plan shards (0 = default)")
	exact := flag.Bool("exact", false,
		"run full fixed-size grids instead of adaptive pruning + early stopping (internal, recovery)")
	benchOut := flag.String("bench-out", "BENCH_campaigns.json",
		"campaign timing report path (empty disables)")
	dispatchMode := flag.Bool("dispatch", false,
		"run shards in fault-tolerant worker subprocesses")
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

	// Register -model targets, then validate every name-shaped flag
	// before any campaign work: unknown targets and error models fail
	// here, listing what is available.
	modelJSON, err := registerModels(splitList(*modelPaths))
	if err != nil {
		return err
	}
	matrixTargets := splitList(*targetName)
	matrixModels := splitList(*errModels)
	if err := validateMatrixFlags(matrixTargets, matrixModels); err != nil {
		return err
	}
	if *camp != "matrix" {
		if len(matrixTargets) > 1 {
			return fmt.Errorf("-target lists %d targets; only -campaign matrix crosses targets", len(matrixTargets))
		}
		if len(matrixModels) > 0 {
			return fmt.Errorf("-errors only applies to -campaign matrix")
		}
	}
	singleTarget := ""
	if len(matrixTargets) == 1 {
		singleTarget = matrixTargets[0]
	}
	tgt, err := sut.Lookup(singleTarget)
	if err != nil {
		return err
	}

	stopTelemetry, err := experiment.StartTelemetry(experiment.TelemetryFlags{
		ObsAddr: *obsAddr, EventsOut: *eventsOut, Progress: *progress,
	}, os.Stderr)
	if err != nil {
		return err
	}
	defer stopTelemetry()

	opts, err := experiment.DefaultOptionsFor(tgt.Name(), *seed)
	if err != nil {
		return err
	}
	opts.Workers = *workers
	opts.Shards = *shards
	opts.Adaptive = !*exact // before SelfDispatch: the worker spec snapshots opts
	opts.Timings = campaign.NewCollector()
	if *dispatchMode || *checkpoint != "" || fleetMode {
		steps := tightnessSteps()
		spec := experiment.WorkerSpec{
			PerSignal: *perSignal, RAMLocations: *ram, StackLocations: *stack,
			PerModel: *perSignal, RecoveryRAM: *ram, RecoveryStack: *stack,
			PerStep: *perSignal, Steps: steps, IntegPerSignal: *perSignal,
			MatrixTargets: matrixTargets, MatrixModels: matrixModels, MatrixPerCell: *perCell,
			ModelJSON: modelJSON,
		}
		if fleetMode {
			addrs, err := experiment.ParseFleet(*fleet)
			if err != nil {
				return err
			}
			if err := experiment.FleetDispatch(&opts, spec, "-worker-shard", addrs, *fleetListen,
				*heartbeat, *checkpoint, *shardTimeout, *retries, os.Stderr); err != nil {
				return err
			}
		} else if err := experiment.SelfDispatch(&opts, spec, "-worker-shard",
			*checkpoint, *shardTimeout, *retries, os.Stderr); err != nil {
			return err
		}
	}

	switch *camp {
	case "input":
		fmt.Fprintf(os.Stderr, "input-model campaign: %d injections per signal over %d cases...\n",
			*perSignal, len(opts.Cases))
		res, err := experiment.InputCoverage(ctx, opts, *perSignal, nil)
		if err != nil {
			return err
		}
		fmt.Println(report.Table4(res, tgt.EHSet()))
		for _, row := range res.Rows {
			if row.Signal == target.SigPACNT {
				fmt.Println(report.Subsumption(row, tgt.EHSet()))
				if sub := report.SubsumedBy(row, target.EA4); len(sub) > 0 {
					fmt.Printf("fully subsumed by EA4: %v\n\n", sub)
				}
			}
		}
		fmt.Println(report.LatencySummary("Detection latency (time from corruption to first detection)",
			res.All.SetLatenciesMs))
	case "models":
		fmt.Fprintf(os.Stderr, "error-model sensitivity: %d injections per model...\n", *perSignal)
		res, err := experiment.ErrorModelSensitivity(ctx, opts, *perSignal)
		if err != nil {
			return err
		}
		fmt.Println(report.ModelSensitivity(res))
	case "recovery":
		fmt.Fprintf(os.Stderr, "recovery study: %d RAM + %d stack locations x %d cases x 3 arms...\n",
			*ram, *stack, len(opts.Cases))
		res, err := experiment.RecoveryStudy(ctx, opts, *ram, *stack, nil)
		if err != nil {
			return err
		}
		fmt.Println(report.RecoveryTable(res))
	case "tightness":
		steps := tightnessSteps()
		fmt.Fprintf(os.Stderr, "EA tightness sweep: %d injections per setting...\n", *perSignal)
		res, err := experiment.EATightnessStudy(ctx, opts, *perSignal, steps)
		if err != nil {
			return err
		}
		fmt.Println(report.TightnessTable(res))
	case "integration":
		fmt.Fprintf(os.Stderr, "EA integration-mode study: %d injections...\n", *perSignal)
		res, err := experiment.EAIntegrationStudy(ctx, opts, *perSignal)
		if err != nil {
			return err
		}
		fmt.Println(report.IntegrationTable(res))
	case "internal":
		fmt.Fprintf(os.Stderr, "internal-model campaign: %d RAM + %d stack locations x %d cases...\n",
			*ram, *stack, len(opts.Cases))
		res, err := experiment.InternalCoverage(ctx, opts, *ram, *stack)
		if err != nil {
			return err
		}
		fmt.Println(report.Figure3(res))
	case "matrix":
		names := matrixTargets
		if names == nil {
			names = sut.Names()
		}
		mods := matrixModels
		if mods == nil {
			mods = experiment.MatrixErrorModels()
		}
		fmt.Fprintf(os.Stderr, "placement matrix: %d targets x %d error models, %d injections per cell...\n",
			len(names), len(mods), *perCell)
		res, err := experiment.PlacementMatrix(ctx, opts, names, mods, *perCell)
		if err != nil {
			return err
		}
		fmt.Println(report.MatrixTable(res))
		if err := matrixCriticalityChecks(ctx, opts, names); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -campaign %q", *camp)
	}
	experiment.PrintRetrySummary(os.Stderr, opts.Timings)
	if err := experiment.WriteCampaignTimings(*benchOut, *seed, *workers, opts.Timings); err != nil {
		return err
	}
	if *benchOut != "" {
		fmt.Fprintf(os.Stderr, "campaign timing written to %s\n", *benchOut)
	}
	return nil
}

// matrixCriticalityChecks closes the matrix report: for every
// multi-output target in the matrix, measure a small permeability
// sample, rank its signals by criticality (Eqs. 3-4, with the declared
// output weights live) with the analytic propagation engine and verify
// the ranking against tree-based path enumeration, the reference
// oracle.
func matrixCriticalityChecks(ctx context.Context, base experiment.Options, names []string) error {
	const perInput = 60
	for _, name := range names {
		t, err := sut.Lookup(name)
		if err != nil {
			return err
		}
		outs := t.System().SystemOutputs()
		if len(outs) < 2 {
			continue
		}
		opts, err := experiment.DefaultOptionsFor(name, base.Seed)
		if err != nil {
			return err
		}
		opts.Workers = base.Workers
		opts.Shards = base.Shards
		fmt.Fprintf(os.Stderr, "criticality check on %s: %d injections per input...\n", name, perInput)
		res, err := experiment.EstimatePermeability(ctx, opts, perInput)
		if err != nil {
			return err
		}
		ar, err := analytic.Shared().Profile(res.Matrix)
		if err != nil {
			return err
		}
		pr, err := core.BuildProfile(res.Matrix)
		if err != nil {
			return err
		}
		tree, ana := pr.Ranked(core.ByCriticality), ar.Ranked(core.ByCriticality)
		if len(tree) != len(ana) {
			return fmt.Errorf("criticality check on %s: tree ranks %d signals, analytic %d", name, len(tree), len(ana))
		}
		fmt.Printf("multi-output criticality on %s (%d outputs), measured vs analytic:\n", name, len(outs))
		for i := range tree {
			if tree[i].Signal != ana[i].Signal {
				return fmt.Errorf("criticality check on %s: rankings diverge at #%d (tree %s, analytic %s)",
					name, i+1, tree[i].Signal, ana[i].Signal)
			}
			if ana[i].Kind != model.KindIntermediate {
				continue
			}
			fmt.Printf("  %-10s criticality %.3f\n", ana[i].Signal, ana[i].Criticality)
		}
		fmt.Println("  analytic ranking matches the measured-tree ranking")
		fmt.Println()
	}
	return nil
}
