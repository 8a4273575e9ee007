// Command propan runs the error propagation analysis of the target
// system: it prints the permeability matrix (Table 1), module measures,
// signal exposures, and — on request — trace, backtrack or impact trees.
//
// The matrix comes either from the paper's published values (-source
// paper) or from a fault-injection campaign on the reimplemented target
// (-source measure).
//
// Usage:
//
//	propan [-source paper|measure] [-per-input 500] [-tree sig] [-backtrack sig] [-impact sig]
//
// Measured campaigns run adaptively by default: sampling streams stop
// once their Wilson intervals are tight (docs/adaptive.md). -exact
// restores the fixed-size grid the paper used.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/analytic"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/model"
	"repro/internal/paper"
	"repro/internal/report"
	"repro/internal/target"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "propan:", err)
		os.Exit(1)
	}
}

func run() error {
	source := flag.String("source", "paper", "permeability source: paper or measure")
	perInput := flag.Int("per-input", 500,
		"injections per module input (measure mode; the paper used 2000)")
	seed := flag.Int64("seed", 1, "campaign seed (measure mode)")
	workers := flag.Int("workers", 8, "campaign parallelism (measure mode)")
	exact := flag.Bool("exact", false,
		"run the full fixed-size grid instead of the adaptive early-stopping campaign")
	saveSamples := flag.String("save-samples", "",
		"write per-edge injection counts to this JSON file (measure mode)")
	benchOut := flag.String("bench-out", "",
		"campaign timing report path (measure mode; empty disables)")
	traceSig := flag.String("tree", "", "render the trace tree of this signal")
	backSig := flag.String("backtrack", "", "render the backtrack tree of this signal")
	impactSig := flag.String("impact", "", "render the impact tree of this signal")
	dotOut := flag.String("dot", "", "write Graphviz profiles (exposure + impact) with this file prefix")
	saveMatrix := flag.String("save-matrix", "", "write the permeability matrix to this JSON file")
	loadMatrix := flag.String("load-matrix", "", "read the permeability matrix from this JSON file instead of -source")
	flag.Parse()

	// Validate before any campaign or file work so misuse fails fast.
	if err := validateFlags(*source, *perInput, *workers, *saveSamples); err != nil {
		return err
	}

	var p *core.Permeability
	if *loadMatrix != "" {
		data, err := os.ReadFile(*loadMatrix)
		if err != nil {
			return err
		}
		p, err = core.UnmarshalPermeability(target.NewSystem(), data)
		if err != nil {
			return err
		}
		*source = "file"
	}
	switch *source {
	case "file":
		// Loaded above.
	case "paper":
		p = paper.Table1()
	case "measure":
		opts := experiment.DefaultOptions(*seed)
		opts.Workers = *workers
		opts.Adaptive = !*exact
		if *benchOut != "" {
			opts.Timings = campaign.NewCollector()
		}
		mode := "adaptive"
		if *exact {
			mode = "exact"
		}
		fmt.Fprintf(os.Stderr, "measuring permeabilities (%s): %d injections per input over %d cases...\n",
			mode, *perInput, len(opts.Cases))
		res, err := experiment.EstimatePermeability(context.Background(), opts, *perInput)
		if err != nil {
			return err
		}
		if opts.Adaptive {
			fmt.Fprintf(os.Stderr, "  %d of %d planned runs executed (%d saved)\n",
				res.TotalRuns, res.PlannedRuns, res.PlannedRuns-res.TotalRuns)
		}
		if *saveSamples != "" {
			if err := res.WriteSamples(*saveSamples); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "samples written to %s\n", *saveSamples)
		}
		if err := experiment.WriteCampaignTimings(*benchOut, *seed, *workers, opts.Timings); err != nil {
			return err
		}
		if *benchOut != "" {
			fmt.Fprintf(os.Stderr, "campaign timing written to %s\n", *benchOut)
		}
		p = res.Matrix
	}

	if *saveMatrix != "" {
		data, err := p.MarshalJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*saveMatrix, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "matrix written to %s\n", *saveMatrix)
	}

	fmt.Println(report.Table1(p))

	sys := p.System()
	fmt.Println("Module measures:")
	fmt.Printf("%-8s %22s %24s %16s\n", "Module", "relative permeability", "non-weighted permeability", "exposure")
	for _, id := range sys.ModuleIDs() {
		rel, err := p.RelativePermeability(id)
		if err != nil {
			return err
		}
		nw, err := p.NonWeightedPermeability(id)
		if err != nil {
			return err
		}
		x, err := p.ModuleExposure(id)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %22.3f %24.3f %16.3f\n", id, rel, nw, x)
	}
	fmt.Println()

	pr, err := analytic.Shared().Profile(p)
	if err != nil {
		return err
	}
	fmt.Println(report.ProfileFigure(pr, core.ByExposure, "Signal error exposure profile (Figure 5)"))
	fmt.Println(report.ProfileFigure(pr, core.ByImpact, "Signal impact profile (Figure 6)"))

	if *dotOut != "" {
		for metric, name := range map[core.Metric]string{
			core.ByExposure: "exposure",
			core.ByImpact:   "impact",
		} {
			path := *dotOut + "-" + name + ".dot"
			if err := os.WriteFile(path, []byte(report.DotProfile(pr, metric, name)), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}

	if *traceSig != "" {
		tree, err := core.BuildTraceTree(sys, model.SignalID(*traceSig))
		if err != nil {
			return err
		}
		fmt.Println(tree.Render())
	}
	if *backSig != "" {
		tree, err := core.BuildBacktrackTree(sys, model.SignalID(*backSig))
		if err != nil {
			return err
		}
		fmt.Println(tree.Render())
	}
	if *impactSig != "" {
		fig, err := report.Figure4(p, model.SignalID(*impactSig), target.SigTOC2)
		if err != nil {
			return err
		}
		fmt.Println(fig)
	}
	return nil
}

// validateFlags rejects flag combinations that cannot run.
func validateFlags(source string, perInput, workers int, saveSamples string) error {
	if perInput < 1 {
		return fmt.Errorf("-per-input must be >= 1 (got %d)", perInput)
	}
	if workers < 1 {
		return fmt.Errorf("-workers must be >= 1 (got %d)", workers)
	}
	switch source {
	case "paper", "measure":
	default:
		return fmt.Errorf("unknown -source %q (want paper or measure)", source)
	}
	if saveSamples != "" && source != "measure" {
		return fmt.Errorf("-save-samples requires -source measure")
	}
	return nil
}
