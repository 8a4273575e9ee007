// Multiout: criticality analysis on a multi-output system (paper
// Section 8). The arrestment target has a single output, so criticality
// degenerates to scaled impact there; this example builds a two-output
// engine controller — a fuel actuator (criticality 1.0) and a
// diagnostics link (criticality 0.15) — and shows how criticality
// re-ranks signals that impact alone ties, the paper's C3 point: "two
// signals with the same impact may have different criticalities
// depending on which outputs they affect the most."
//
// Run with: go run ./examples/multiout
package main

import (
	"fmt"
	"log"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/model"
)

func main() {
	sys, err := model.NewBuilder("engine-controller").
		AddSignal("rpm", model.Uint(16), model.AsSystemInput()).
		AddSignal("lambda", model.Uint(10), model.AsSystemInput()).
		AddSignal("load", model.Uint(10)).
		AddSignal("mix", model.Uint(10)).
		AddSignal("fuel_cmd", model.Uint(8), model.AsSystemOutput(1.0)).
		AddSignal("diag_word", model.Uint(16), model.AsSystemOutput(0.15)).
		AddModule("SENSE", model.In("rpm"), model.Out("load")).
		AddModule("MIXER", model.In("lambda", "load"), model.Out("mix")).
		AddModule("ACT", model.In("mix"), model.Out("fuel_cmd")).
		AddModule("DIAG", model.In("load", "mix"), model.Out("diag_word")).
		Build()
	if err != nil {
		log.Fatal(err)
	}

	p := core.NewPermeability(sys)
	p.MustSet("SENSE", 1, 1, 0.80) // rpm -> load
	p.MustSet("MIXER", 1, 1, 0.70) // lambda -> mix
	p.MustSet("MIXER", 2, 1, 0.40) // load -> mix
	p.MustSet("ACT", 1, 1, 0.90)   // mix -> fuel_cmd
	p.MustSet("DIAG", 1, 1, 0.90)  // load -> diag_word
	p.MustSet("DIAG", 2, 1, 0.36)  // mix -> diag_word

	pr, err := analytic.Shared().Profile(p)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("signal     I(->fuel_cmd)  I(->diag_word)  criticality")
	for _, sp := range pr.Ranked(core.ByCriticality) {
		if sp.Kind != model.KindIntermediate && sp.Kind != model.KindSystemInput {
			continue
		}
		fmt.Printf("%-10s %13.3f  %14.3f  %11.3f\n",
			sp.Signal, pr.ImpactOn(sp, "fuel_cmd"), pr.ImpactOn(sp, "diag_word"), sp.Criticality)
	}

	// load and mix have the same impact on the actuator path shape but
	// differ on the diagnostic path — criticality separates them only as
	// far as the diagnostic output's low weight allows.
	load, _ := pr.Signal("load")
	mix, _ := pr.Signal("mix")
	fmt.Printf("\nload:  impact on fuel %.3f, on diag %.3f -> criticality %.3f\n",
		pr.ImpactOn(load, "fuel_cmd"), pr.ImpactOn(load, "diag_word"), load.Criticality)
	fmt.Printf("mix:   impact on fuel %.3f, on diag %.3f -> criticality %.3f\n",
		pr.ImpactOn(mix, "fuel_cmd"), pr.ImpactOn(mix, "diag_word"), mix.Criticality)

	// Policy change: the operator now treats diagnostics as critical
	// (e.g. certification telemetry). Criticalities re-rank without
	// re-measuring anything (Eq. 3-4 scale the same impacts).
	fmt.Println("\nafter raising diag_word criticality to 0.9:")
	crits := map[model.SignalID]float64{"fuel_cmd": 1.0, "diag_word": 0.9}
	for _, sp := range pr.Ranked(core.ByImpact) {
		if sp.Kind == model.KindSystemOutput {
			continue
		}
		prod := 1.0
		for i, o := range sys.SystemOutputs() {
			prod *= 1 - crits[o]*sp.Impacts[i]
		}
		fmt.Printf("%-10s criticality %.3f\n", sp.Signal, 1-prod)
	}
}
