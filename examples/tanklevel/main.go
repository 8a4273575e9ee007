// Tanklevel: the framework's "generalized applicability" validation
// (the paper's stated future work) — run the full propagation-analysis
// pipeline on a second, unrelated target: a tank level controller with
// two system outputs (valve, criticality 1.0; alarm line, criticality
// 0.25). Because there are two outputs, impact and criticality diverge
// at runtime, which the single-output arrestment target cannot show.
//
// The campaign is the same generic engine every target shares — the
// tank is just Options.Target = "tank" (docs/targets.md).
//
// Run with: go run ./examples/tanklevel
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/tank"
)

func main() {
	// Step 1: measure the permeability matrix by fault injection.
	opts, err := experiment.DefaultOptionsFor("tank", 1)
	if err != nil {
		log.Fatal(err)
	}
	opts.Workers = 1
	const perInput = 96
	fmt.Printf("estimating tank permeabilities (%d injections per input, %d cases)...\n",
		perInput, len(opts.Cases))
	res, err := experiment.EstimatePermeability(context.Background(), opts, perInput)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d injection runs\n\n", res.TotalRuns)

	sys := tank.NewSystem()
	fmt.Println("measured permeabilities:")
	for _, e := range sys.Edges() {
		fmt.Printf("  %-8s %-8s -> %-7s %.3f\n", e.Module, e.From, e.To, res.Matrix.Get(e))
	}

	// Step 2: profile and rank by criticality (Eqs. 3-4 live, with two
	// outputs of different weight).
	ranks, err := tank.RankCriticality(res.Matrix)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsignal     I(->VALVE)  I(->ALARM)  criticality")
	for _, r := range ranks {
		fmt.Printf("%-10s %10.3f  %10.3f  %11.3f\n",
			r.Signal, r.ImpactValve, r.ImpactAlarm, r.Criticality)
	}

	// Step 3: place EDMs with the same rules that reproduced the
	// paper's selections on the arrestment target.
	pr, err := analytic.Shared().Profile(res.Matrix)
	if err != nil {
		log.Fatal(err)
	}
	th := core.DefaultThresholds()
	fmt.Println("\nPA placement:      ", core.SelectPA(pr, th).Selected())
	fmt.Println("extended placement:", core.SelectExtended(pr, th).Selected())

	// Step 4: module-level view for ERM placement (R2).
	cands, err := core.SelectERM(res.Matrix, core.DefaultModuleThresholds())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nERM candidates (R2):")
	for _, c := range cands {
		if c.Selected {
			fmt.Printf("  %-8s permeability %.3f, exposure %.3f %v\n",
				c.Module, c.RelativePermeability, c.RelativeExposure, c.Rules)
		}
	}
}
