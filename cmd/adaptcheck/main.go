// Command adaptcheck verifies an adaptive permeability campaign
// against its exact reference. It consumes the per-edge sample files
// written by propan -save-samples (one from an -exact run, one from an
// adaptive run over the same seed and sizes) and checks:
//
//   - both campaigns measured the same set of edges;
//   - the adaptive campaign never executed more trials than the exact
//     one on any edge (adaptive trials are a prefix of the exact plan);
//   - every edge's estimates agree within Wilson-interval tolerance:
//     the two intervals at the given z must intersect;
//   - the adaptive run saved injections (total_runs < planned_runs),
//     with planned_runs matching the exact campaign's volume.
//
// With -bench, the adaptive BENCH_campaigns.json is also audited: the
// permeability row must account runs_planned = runs_executed +
// runs_saved with runs_saved > 0.
//
// With -mode liveness the tool audits the adaptive layer's def/use
// pruning on non-arrestment targets in-process: for each requested
// registered target (default: every non-arrestment entry) it executes a
// sample of the very injections the liveness profile classifies masked
// and requires each witness run to be indistinguishable from the golden
// run — same completion time and no difference on any recorded signal.
// Any divergence is a pruning unsoundness and fails the audit. A target
// on which no injection is classified masked runs no witness; its audit
// reports "nothing to prove" rather than sound pruning.
//
// With -mode trace the tool analyzes the NDJSON event log written by a
// campaign's -events-out flag: it reconstructs the merged span trees
// (including worker-side spans folded in over the dispatch protocols),
// prints each campaign trace's critical path and the slowest shards
// with queue/exec/network phase attribution, and with -flame-out
// writes folded stacks for flamegraph renderers.
//
// With -mode analytic the tool audits the solver timing rows written
// by place -bench-out against the analytic engine's performance
// contract: full ranking + sweep under 50 ms per operation, at least
// 100× faster than the measured permeability campaign, and incremental
// re-analysis at least 10× faster than a cold solve. The engine's
// agreement with tree-based enumeration and with Monte Carlo on the
// cyclic fixture is tested in internal/analytic.
//
// Usage:
//
//	adaptcheck -exact exact.json -adaptive adaptive.json [-bench BENCH_adaptive.json] [-z 1.96]
//	adaptcheck -mode liveness [-target tank,multiout] [-per-class 8]
//	adaptcheck -mode analytic -bench BENCH_analytic.json
//	adaptcheck -mode trace -events events.ndjson [-flame-out stacks.folded] [-top 5]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/experiment"
	"repro/internal/stats"
	"repro/internal/sut"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adaptcheck:", err)
		os.Exit(1)
	}
}

// sampleEdge mirrors one row of the samples document propan writes.
type sampleEdge struct {
	Module    string `json:"module"`
	In        int    `json:"in"`
	Out       int    `json:"out"`
	From      string `json:"from"`
	To        string `json:"to"`
	Successes int    `json:"successes"`
	Trials    int    `json:"trials"`
}

type samplesDoc struct {
	PlannedRuns int          `json:"planned_runs"`
	TotalRuns   int          `json:"total_runs"`
	ActiveRuns  int          `json:"active_runs"`
	Edges       []sampleEdge `json:"edges"`
}

type benchRow struct {
	Campaign     string  `json:"campaign"`
	Runs         int     `json:"runs"`
	WallS        float64 `json:"wall_s"`
	RunsPlanned  int     `json:"runs_planned"`
	RunsExecuted int     `json:"runs_executed"`
	RunsSaved    int     `json:"runs_saved"`
}

type benchDoc struct {
	Campaigns []benchRow `json:"campaigns"`
}

func readSamples(path string) (*samplesDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc samplesDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Edges) == 0 {
		return nil, fmt.Errorf("%s: no edges", path)
	}
	return &doc, nil
}

func edgeKey(e sampleEdge) string {
	return fmt.Sprintf("%s[%d->%d] %s->%s", e.Module, e.In, e.Out, e.From, e.To)
}

func run() error {
	mode := flag.String("mode", "samples",
		"what to check: samples (adaptive vs exact campaign), liveness (pruning soundness per target), analytic (solver timing contract) or trace (campaign event-log analysis)")
	exactPath := flag.String("exact", "", "samples JSON from the exact campaign")
	adaptivePath := flag.String("adaptive", "", "samples JSON from the adaptive campaign")
	benchPath := flag.String("bench", "",
		"BENCH JSON to audit: the adaptive campaign's (samples mode, optional) or place -bench-out's (analytic mode)")
	z := flag.Float64("z", 1.96, "Wilson interval critical value")
	targets := flag.String("target", "",
		"liveness mode: comma-separated registered targets (empty = every non-arrestment entry)")
	perClass := flag.Int("per-class", 8, "liveness mode: masked targets proven per region per case")
	seed := flag.Int64("seed", 1, "liveness mode: campaign seed")
	eventsPath := flag.String("events", "", "trace mode: NDJSON event log from a campaign's -events-out")
	flameOut := flag.String("flame-out", "", "trace mode: write folded flamegraph stacks to this file")
	top := flag.Int("top", 5, "trace mode: how many straggler shards to report")
	flag.Parse()
	if err := validateFlags(*mode, *exactPath, *adaptivePath, *benchPath, *eventsPath, *z, *perClass); err != nil {
		return err
	}

	switch *mode {
	case "liveness":
		return runLiveness(*targets, *perClass, *seed)
	case "analytic":
		return runAnalytic(*benchPath)
	case "trace":
		return runTrace(*eventsPath, *flameOut, *top)
	}

	exact, err := readSamples(*exactPath)
	if err != nil {
		return err
	}
	adaptive, err := readSamples(*adaptivePath)
	if err != nil {
		return err
	}

	if exact.TotalRuns != exact.PlannedRuns {
		return fmt.Errorf("exact campaign executed %d of %d planned runs; is %s really from an -exact run?",
			exact.TotalRuns, exact.PlannedRuns, *exactPath)
	}
	if adaptive.PlannedRuns != exact.PlannedRuns {
		return fmt.Errorf("planned volumes differ: exact %d, adaptive %d — different seeds or sizes?",
			exact.PlannedRuns, adaptive.PlannedRuns)
	}
	if adaptive.TotalRuns >= adaptive.PlannedRuns {
		return fmt.Errorf("adaptive campaign saved nothing: executed %d of %d planned runs",
			adaptive.TotalRuns, adaptive.PlannedRuns)
	}

	exEdges := make(map[string]sampleEdge, len(exact.Edges))
	for _, e := range exact.Edges {
		exEdges[edgeKey(e)] = e
	}

	var violations []string
	maxDelta := 0.0
	for _, a := range adaptive.Edges {
		key := edgeKey(a)
		e, ok := exEdges[key]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: measured adaptively but absent from the exact campaign", key))
			continue
		}
		delete(exEdges, key)
		if a.Trials > e.Trials {
			violations = append(violations,
				fmt.Sprintf("%s: adaptive ran %d trials, exact only %d — not a prefix", key, a.Trials, e.Trials))
			continue
		}
		pe := stats.Proportion{Successes: e.Successes, Trials: e.Trials}
		pa := stats.Proportion{Successes: a.Successes, Trials: a.Trials}
		if d := math.Abs(pe.Estimate() - pa.Estimate()); d > maxDelta {
			maxDelta = d
		}
		eLo, eHi := pe.WilsonCI(*z)
		aLo, aHi := pa.WilsonCI(*z)
		if aLo > eHi || eLo > aHi {
			violations = append(violations, fmt.Sprintf(
				"%s: intervals disjoint — exact %d/%d [%.4f, %.4f], adaptive %d/%d [%.4f, %.4f]",
				key, e.Successes, e.Trials, eLo, eHi, a.Successes, a.Trials, aLo, aHi))
		}
	}
	for key := range exEdges {
		violations = append(violations, fmt.Sprintf("%s: measured exactly but absent from the adaptive campaign", key))
	}

	if *benchPath != "" {
		data, err := os.ReadFile(*benchPath)
		if err != nil {
			return err
		}
		var bench benchDoc
		if err := json.Unmarshal(data, &bench); err != nil {
			return fmt.Errorf("%s: %w", *benchPath, err)
		}
		found := false
		for _, row := range bench.Campaigns {
			if row.Campaign != "permeability" {
				continue
			}
			found = true
			if row.RunsPlanned != row.RunsExecuted+row.RunsSaved {
				violations = append(violations, fmt.Sprintf(
					"bench: runs_planned %d != runs_executed %d + runs_saved %d",
					row.RunsPlanned, row.RunsExecuted, row.RunsSaved))
			}
			if row.RunsSaved <= 0 {
				violations = append(violations,
					fmt.Sprintf("bench: runs_saved %d, want > 0", row.RunsSaved))
			}
			if row.Runs != row.RunsExecuted {
				violations = append(violations, fmt.Sprintf(
					"bench: runs %d != runs_executed %d", row.Runs, row.RunsExecuted))
			}
		}
		if !found {
			violations = append(violations, "bench: no permeability row")
		}
	}

	if err := reportViolations(violations); err != nil {
		return err
	}

	fmt.Printf("adaptcheck: %d edges agree within z=%.2f Wilson intervals (max estimate delta %.4f)\n",
		len(adaptive.Edges), *z, maxDelta)
	fmt.Printf("adaptcheck: adaptive executed %d of %d planned runs (%d saved, %.1f%%)\n",
		adaptive.TotalRuns, adaptive.PlannedRuns, adaptive.PlannedRuns-adaptive.TotalRuns,
		100*float64(adaptive.PlannedRuns-adaptive.TotalRuns)/float64(adaptive.PlannedRuns))
	return nil
}

// validateFlags rejects flag combinations that cannot run, before any
// file is read or any target is looked up. Each mode checks only the
// flags it uses.
func validateFlags(mode, exactPath, adaptivePath, benchPath, eventsPath string, z float64, perClass int) error {
	switch mode {
	case "samples":
		if z <= 0 {
			return fmt.Errorf("-z must be positive (got %v)", z)
		}
		if exactPath == "" || adaptivePath == "" {
			return fmt.Errorf("both -exact and -adaptive are required")
		}
	case "liveness":
		if perClass < 1 {
			return fmt.Errorf("-per-class must be >= 1 (got %d)", perClass)
		}
	case "analytic":
		if benchPath == "" {
			return fmt.Errorf("-mode analytic requires -bench (the rows of place -bench-out)")
		}
	case "trace":
		if eventsPath == "" {
			return fmt.Errorf("-mode trace requires -events (the -events-out file of a campaign run)")
		}
	default:
		return fmt.Errorf("unknown -mode %q (want samples, liveness, analytic or trace)", mode)
	}
	return nil
}

// reportViolations prints each violation to stderr and returns an error
// counting them, or nil when there are none.
func reportViolations(violations []string) error {
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "adaptcheck:", v)
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d violation(s)", len(violations))
	}
	return nil
}

// runAnalytic checks the solver timing rows of place -bench-out against
// the performance contract (checkAnalytic).
func runAnalytic(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var bench benchDoc
	if err := json.Unmarshal(data, &bench); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := reportViolations(checkAnalytic(path, bench.Campaigns)); err != nil {
		return err
	}
	fmt.Printf("adaptcheck: solver timing rows in %s meet the performance contract\n", path)
	return nil
}

// checkAnalytic returns the contract violations of the solver timing
// rows read from src: ranking + sweep under 50 ms/op and ≥100× faster
// than the permeability campaign, and incremental re-analysis ≥10×
// faster than a cold solve. A row with no runs counts as missing.
func checkAnalytic(src string, campaigns []benchRow) []string {
	rows := make(map[string]benchRow, len(campaigns))
	for _, row := range campaigns {
		rows[row.Campaign] = row
	}
	perOp := func(name string) (float64, bool) {
		row, ok := rows[name]
		if !ok || row.Runs <= 0 {
			return 0, false
		}
		return row.WallS / float64(row.Runs), true
	}

	var violations []string
	rank, okRank := perOp("analytic-rank")
	sweep, okSweep := perOp("analytic-sweep")
	if !okRank || !okSweep {
		violations = append(violations, fmt.Sprintf(
			"%s: missing analytic-rank / analytic-sweep rows (run place -bench-out)", src))
	} else {
		if rank+sweep > 0.05 {
			violations = append(violations, fmt.Sprintf(
				"ranking + sweep takes %.1f ms/op, want < 50 ms", (rank+sweep)*1e3))
		}
		if camp, ok := rows["permeability"]; !ok {
			violations = append(violations, fmt.Sprintf(
				"%s: no permeability campaign row — benchmark with place -source measure", src))
		} else if (rank+sweep)*100 > camp.WallS {
			violations = append(violations, fmt.Sprintf(
				"ranking + sweep (%.1f ms) is not 100× faster than the %.1f ms permeability campaign",
				(rank+sweep)*1e3, camp.WallS*1e3))
		}
	}
	cold, okCold := perOp("analytic-cold")
	incr, okIncr := perOp("analytic-incremental")
	if !okCold || !okIncr {
		violations = append(violations, fmt.Sprintf(
			"%s: missing analytic-cold / analytic-incremental rows", src))
	} else if incr*10 > cold {
		violations = append(violations, fmt.Sprintf(
			"incremental re-analysis (%.2f ms/op) is not 10× faster than a cold solve (%.2f ms/op)",
			incr*1e3, cold*1e3))
	}
	return violations
}

// runLiveness audits the adaptive def/use pruning on the requested
// targets: every sampled masked classification must be proved by a
// witness run that matches the golden trace exactly.
func runLiveness(targetList string, perClass int, seed int64) error {
	var names []string
	for _, n := range strings.Split(targetList, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if names == nil {
		for _, n := range sut.Names() {
			if n != sut.DefaultTarget {
				names = append(names, n)
			}
		}
	}
	for _, n := range names {
		if _, err := sut.Lookup(n); err != nil {
			return err
		}
	}

	failed := false
	for _, n := range names {
		opts, err := experiment.DefaultOptionsFor(n, seed)
		if err != nil {
			return err
		}
		opts.Workers = 1
		res, err := experiment.AuditLiveness(context.Background(), opts, perClass)
		if err != nil {
			return err
		}
		fmt.Printf("adaptcheck: %s: %d/%d RAM and %d/%d stack targets masked over %d case(s), %d witness run(s)\n",
			res.Target, res.RAMMasked, res.RAMTargets*res.Cases, res.StackMasked, res.StackTargets*res.Cases,
			res.Cases, res.Proofs)
		if len(res.Violations) > 0 {
			failed = true
			for _, v := range res.Violations {
				fmt.Fprintf(os.Stderr, "adaptcheck: %s: %s\n", res.Target, v)
			}
			continue
		}
		fmt.Println(livenessVerdict(res))
	}
	if failed {
		return fmt.Errorf("liveness audit found pruning violations")
	}
	return nil
}

// livenessVerdict is the closing line of an audit without violations.
// An audit that ran no witness compared no trace, so it proves nothing
// and must not read as a proof.
func livenessVerdict(res *experiment.LivenessAuditResult) string {
	if res.Proofs == 0 {
		return fmt.Sprintf("adaptcheck: %s: no masked target sampled, no witness run — nothing to prove", res.Target)
	}
	return fmt.Sprintf("adaptcheck: %s: every witness matched its golden trace — pruning is sound", res.Target)
}
