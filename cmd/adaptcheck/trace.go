package main

import (
	"fmt"
	"os"

	"repro/internal/traceview"
)

// runTrace analyzes the NDJSON event log a campaign wrote via
// -events-out: it reconstructs the merged span trees (coordinator
// dispatch spans with the workers' shard/plan/exec spans folded in),
// prints each campaign's critical path and the slowest shards with
// queue/exec/net phase attribution, and — with -flame-out — writes the
// folded-stack file flamegraph renderers consume.
func runTrace(eventsPath, flameOut string, top int) error {
	f, err := os.Open(eventsPath)
	if err != nil {
		return err
	}
	defer f.Close()
	a, err := traceview.Parse(f)
	if err != nil {
		return err
	}
	if len(a.Spans) == 0 {
		return fmt.Errorf("%s: no span records — was the campaign run with -events-out?", eventsPath)
	}
	if err := traceview.WriteReport(os.Stdout, a, top); err != nil {
		return err
	}
	if flameOut != "" {
		out, err := os.Create(flameOut)
		if err != nil {
			return err
		}
		if err := traceview.WriteFolded(out, a); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Printf("adaptcheck: folded flamegraph stacks written to %s\n", flameOut)
	}
	return nil
}
