// Conformance: the Section 9 process — set project-level dependability
// conditions (maximum permeability, exposure and impact) and check the
// profiled target against them; then derive module-level ERM placement
// per guideline R2. Finally, persist the system description and the
// matrix as JSON so the analysis can be re-run without the simulator.
//
// Run with: go run ./examples/conformance
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/paper"
)

func main() {
	p := paper.Table1()
	pr, err := analytic.Shared().Profile(p)
	if err != nil {
		log.Fatal(err)
	}

	// Project policy: every module must contain at least half of the
	// errors reaching it; no signal may see more than 1.5 units of
	// exposure; nothing may impact the output with more than 0.8.
	conds := core.Conditions{
		MaxModulePermeability: 0.5,
		MaxModuleExposure:     1.5,
		MaxSignalExposure:     1.5,
		MaxSignalImpact:       0.8,
	}
	findings, err := core.CheckConformance(pr, conds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("conformance check against project conditions: %d findings\n", len(findings))
	for _, f := range findings {
		fmt.Println("  -", f)
	}

	// R2: which modules deserve recovery mechanisms?
	fmt.Println("\nERM placement (module level, R1/R2):")
	cands, err := core.SelectERM(p, core.DefaultModuleThresholds())
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range cands {
		verdict := "skip"
		if c.Selected {
			verdict = "PLACE ERM"
		}
		fmt.Printf("  %-8s permeability %.3f, exposure %.3f -> %s %v\n",
			c.Module, c.RelativePermeability, c.RelativeExposure, verdict, c.Rules)
	}

	// Persist the analysis inputs for offline use.
	dir, err := os.MkdirTemp("", "edm-analysis")
	if err != nil {
		log.Fatal(err)
	}
	sysJSON, err := p.System().MarshalJSON()
	if err != nil {
		log.Fatal(err)
	}
	matJSON, err := p.MarshalJSON()
	if err != nil {
		log.Fatal(err)
	}
	sysPath := filepath.Join(dir, "system.json")
	matPath := filepath.Join(dir, "permeability.json")
	if err := os.WriteFile(sysPath, sysJSON, 0o644); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(matPath, matJSON, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserialized analysis inputs:\n  %s\n  %s\n", sysPath, matPath)

	// Prove the round trip: reload and recompute one measure.
	data, err := os.ReadFile(matPath)
	if err != nil {
		log.Fatal(err)
	}
	reloaded, err := core.UnmarshalPermeability(p.System(), data)
	if err != nil {
		log.Fatal(err)
	}
	x, err := reloaded.SignalExposure("OutValue")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded matrix: exposure(OutValue) = %.3f (Table 2: 1.781)\n", x)
}
