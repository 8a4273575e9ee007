// Quickstart: model a small modular system, assign error permeabilities,
// and let the framework profile it and place error detection mechanisms.
//
// The system is a tiny sensor-fusion pipeline, deliberately not the
// paper's arrestment target, to show the framework is target-agnostic:
//
//	gyro --> [FILTER] --> rate  --> [CTRL] --> cmd --> [DRV] --> pwm
//	temp -----------------------/
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/model"
)

func main() {
	// 1. Describe the system: signals, modules, wiring.
	sys, err := model.NewBuilder("fusion").
		AddSignal("gyro", model.Uint(12), model.AsSystemInput()).
		AddSignal("temp", model.Uint(8), model.AsSystemInput()).
		AddSignal("rate", model.Int(16)).
		AddSignal("cmd", model.Int(16)).
		AddSignal("pwm", model.Uint(8), model.AsSystemOutput(1.0)).
		AddModule("FILTER", model.In("gyro"), model.Out("rate")).
		AddModule("CTRL", model.In("rate", "temp"), model.Out("cmd")).
		AddModule("DRV", model.In("cmd"), model.Out("pwm")).
		Build()
	if err != nil {
		log.Fatal(err)
	}

	// 2. Assign error permeabilities P^M_{i,k} — normally estimated by
	// fault injection (see examples/placement); here set by hand.
	p := core.NewPermeability(sys)
	p.MustSet("FILTER", 1, 1, 0.30) // gyro -> rate: filtering masks most flips
	p.MustSet("CTRL", 1, 1, 0.90)   // rate -> cmd
	p.MustSet("CTRL", 2, 1, 0.05)   // temp -> cmd: only trims the gain
	p.MustSet("DRV", 1, 1, 0.95)    // cmd -> pwm

	// 3. Profile: exposure, impact, criticality per signal.
	pr, err := analytic.Shared().Profile(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("signal        exposure  impact  criticality")
	for _, sp := range pr.Ranked(core.ByExposure) {
		fmt.Printf("%-12s  %8.3f  %6.3f  %11.3f\n",
			sp.Signal, sp.Exposure, sp.Impact, sp.Criticality)
	}

	// 4. Place EDMs with the propagation-analysis rules (R1) and the
	// extended rules (R1 + R3).
	th := core.DefaultThresholds()
	fmt.Println("\nPA placement:      ", core.SelectPA(pr, th).Selected())
	fmt.Println("extended placement:", core.SelectExtended(pr, th).Selected())

	// 5. Visualize propagation: where do errors in gyro go?
	tree, err := core.BuildImpactTree(p, "gyro")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(tree.Render())

	imp, err := analytic.Shared().Impact(p, "gyro", "pwm")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nimpact of gyro errors on pwm: %.3f\n", imp)
}
