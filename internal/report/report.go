// Package report renders the paper's tables and figures — from the
// analytical fixtures or from measured campaign results — as aligned
// ASCII, matching the layout of the published artifacts so paper and
// reproduction can be compared side by side.
package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/ea"
	"repro/internal/experiment"
	"repro/internal/model"
	"repro/internal/stats"
)

// Table1 renders the estimated error permeability of every input/output
// pair, in system edge order (the paper's Table 1 layout: Input ->
// Output, name, value).
func Table1(p *core.Permeability) string {
	var b strings.Builder
	b.WriteString("Table 1: estimated error permeability values of the input/output pairs\n\n")
	fmt.Fprintf(&b, "%-12s -> %-12s %-22s %s\n", "Input", "Output", "Name", "Value")
	for _, e := range p.System().Edges() {
		name := fmt.Sprintf("P^%s_{%d,%d}", e.Module, e.In, e.Out)
		fmt.Fprintf(&b, "%-12s -> %-12s %-22s %.3f\n", e.From, e.To, name, p.Get(e))
	}
	return b.String()
}

// Table2 renders signal error exposures with the PA placement decision
// and its motivating rule, ranked by exposure (the paper's Table 2).
func Table2(pr *core.Profile, sel core.Selection) string {
	var b strings.Builder
	b.WriteString("Table 2: estimated signal error exposures and PA-based selection of EA locations\n\n")
	fmt.Fprintf(&b, "%-12s %8s  %-6s %s\n", "Signal", "X^S_s", "Select", "Motivation")
	for _, sp := range pr.Ranked(core.ByExposure) {
		if sp.Kind == model.KindSystemInput {
			continue // the paper tabulates internal and output signals
		}
		c, err := sel.Candidate(sp.Signal)
		if err != nil {
			continue
		}
		pick := "no"
		if c.Selected {
			pick = "yes"
		}
		var rules []string
		for _, r := range c.Rules {
			rules = append(rules, string(r))
		}
		fmt.Fprintf(&b, "%-12s %8.3f  %-6s %s\n", sp.Signal, sp.Exposure, pick, strings.Join(rules, "; "))
	}
	return b.String()
}

// Table3Row describes one assertion for the resource table.
type Table3Row struct {
	Name   string
	Signal model.SignalID
	InEH   bool
	InPA   bool
	Cost   ea.Cost
}

// Table3 renders the EA setup and the summed ROM/RAM requirements of the
// two sets (the paper's Table 3).
func Table3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3: EA setup and sum of ROM/RAM requirements\n\n")
	fmt.Fprintf(&b, "%-6s %-12s %-6s %-6s %10s %10s\n", "EA", "Signal", "EH-set", "PA-set", "ROM(bytes)", "RAM(bytes)")
	var ehROM, ehRAM, paROM, paRAM, ehCyc, paCyc int
	mark := func(in bool) string {
		if in {
			return "x"
		}
		return "-"
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-12s %-6s %-6s %10d %10d\n",
			r.Name, r.Signal, mark(r.InEH), mark(r.InPA), r.Cost.ROMBytes, r.Cost.RAMBytes)
		if r.InEH {
			ehROM += r.Cost.ROMBytes
			ehRAM += r.Cost.RAMBytes
			ehCyc += r.Cost.Cycles
		}
		if r.InPA {
			paROM += r.Cost.ROMBytes
			paRAM += r.Cost.RAMBytes
			paCyc += r.Cost.Cycles
		}
	}
	fmt.Fprintf(&b, "\nTotal ROM/RAM (bytes): EH-set %d/%d, PA-set %d/%d\n", ehROM, ehRAM, paROM, paRAM)
	ehTot, paTot := float64(ehROM+ehRAM), float64(paROM+paRAM)
	if ehTot > 0 {
		fmt.Fprintf(&b, "Memory reduction PA vs EH: %.0f%%\n", (1-paTot/ehTot)*100)
	}
	if ehCyc > 0 {
		fmt.Fprintf(&b, "Execution overhead (cycles/period): EH-set %d, PA-set %d (%.0f%% reduction)\n",
			ehCyc, paCyc, (1-float64(paCyc)/float64(ehCyc))*100)
	}
	return b.String()
}

// Table4 renders the measured detection coverage for errors injected in
// the system inputs (the paper's Table 4).
func Table4(res *experiment.InputCoverageResult, eaOrder []string) string {
	var b strings.Builder
	b.WriteString("Table 4: obtained detection coverage for errors injected in system input\n\n")
	fmt.Fprintf(&b, "%-8s %6s ", "Signal", "n_err")
	for _, name := range eaOrder {
		fmt.Fprintf(&b, "%7s", name)
	}
	fmt.Fprintf(&b, "%9s %9s\n", "EH-total", "PA-total")
	writeRow := func(r experiment.CoverageRow) {
		fmt.Fprintf(&b, "%-8s %6d ", r.Signal, r.Active)
		for _, name := range eaOrder {
			p := r.PerEA[name]
			if p.Successes == 0 {
				fmt.Fprintf(&b, "%7s", "-")
			} else {
				fmt.Fprintf(&b, "%7.3f", p.Estimate())
			}
		}
		fmt.Fprintf(&b, "%9.3f %9.3f\n",
			r.PerSet[experiment.SetEH].Estimate(), r.PerSet[experiment.SetPA].Estimate())
	}
	for _, r := range res.Rows {
		writeRow(r)
	}
	writeRow(res.All)
	return b.String()
}

// bar renders a horizontal bar of width proportional to v in [0,1].
func bar(v float64, width int) string {
	n := int(v*float64(width) + 0.5)
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}

// Figure3 renders the coverage comparison under the internal error model
// as grouped ASCII bars (the paper's Figure 3): per region and per EA
// set, the c_tot / c_fail / c_nofail bars.
func Figure3(res *experiment.InternalCoverageResult) string {
	const width = 40
	var b strings.Builder
	b.WriteString("Figure 3: comparison of coverage values (internal error model)\n")
	fmt.Fprintf(&b, "periodic bit-flips; %d RAM and %d stack locations\n\n",
		res.RAMLocations, res.StackLocations)
	regions := []experiment.RegionCoverage{res.RAM, res.Stack, res.Total}
	sets := []string{experiment.SetEH, experiment.SetPA, experiment.SetExtended}
	for _, rc := range regions {
		fmt.Fprintf(&b, "%s (%d runs, %d failures)\n", rc.Region, rc.Runs, rc.Failures)
		for _, set := range sets {
			sc := rc.PerSet[set]
			fmt.Fprintf(&b, "  %-9s c_tot    %s %.3f\n", set, bar(sc.Tot.Estimate(), width), sc.Tot.Estimate())
			fmt.Fprintf(&b, "  %-9s c_fail   %s %.3f\n", "", bar(sc.Fail.Estimate(), width), sc.Fail.Estimate())
			fmt.Fprintf(&b, "  %-9s c_nofail %s %.3f\n", "", bar(sc.NoFail.Estimate(), width), sc.NoFail.Estimate())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Figure4 renders the impact tree of a signal and the propagation paths
// to the destination output with their weights and combined impact (the
// paper's Figure 4, drawn for pulscnt → TOC2).
func Figure4(p *core.Permeability, from, to model.SignalID) (string, error) {
	tree, err := core.BuildImpactTree(p, from)
	if err != nil {
		return "", err
	}
	paths := tree.PathsTo(to)
	// The displayed figure enumerates the paths (that is the point of
	// Fig. 4), but the impact value itself comes from the shared
	// analytic solver cache, like every other hot-path impact query.
	impact, err := analytic.Shared().Impact(p, from, to)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: impact tree for signal %s and generated propagation paths\n\n", from)
	b.WriteString(tree.Render())
	b.WriteString("\nPaths to " + string(to) + ":\n")
	for i, path := range paths {
		fmt.Fprintf(&b, "  w%d = %s\n", i+1, path)
	}
	fmt.Fprintf(&b, "\nImpact(%s -> %s) = %.3f\n", from, to, impact)
	return b.String(), nil
}

// ProfileFigure renders the per-signal profile of one metric as a ranked
// bar diagram — the textual equivalent of the line-thickness profiles of
// Figures 5 (exposure) and 6 (impact).
func ProfileFigure(pr *core.Profile, metric core.Metric, title string) string {
	const width = 40
	var b strings.Builder
	b.WriteString(title + "\n\n")
	ranked := pr.Ranked(metric)
	max := 0.0
	for _, sp := range ranked {
		if v := metricOf(sp, metric); v > max {
			max = v
		}
	}
	for _, sp := range ranked {
		v := metricOf(sp, metric)
		norm := 0.0
		if max > 0 {
			norm = v / max
		}
		note := ""
		switch {
		case sp.Kind == model.KindSystemInput:
			note = " (system input)"
		case sp.Kind == model.KindSystemOutput:
			note = " (system output)"
		case sp.IsBool:
			note = " (boolean)"
		}
		fmt.Fprintf(&b, "  %-12s %s %6.3f%s\n", sp.Signal, bar(norm, width), v, note)
	}
	return b.String()
}

func metricOf(sp core.SignalProfile, m core.Metric) float64 {
	switch m {
	case core.ByExposure:
		return sp.Exposure
	case core.ByImpact:
		return sp.Impact
	case core.ByCriticality:
		return sp.Criticality
	default:
		return 0
	}
}

// Table5 renders exposure and impact side by side (the paper's Table 5),
// ranked by exposure.
func Table5(pr *core.Profile, out model.SignalID) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: estimated signal error exposures and impacts on %s\n\n", out)
	fmt.Fprintf(&b, "%-12s %10s %14s\n", "Signal", "X^S_s", "I(s->"+string(out)+")")
	for _, sp := range pr.Ranked(core.ByExposure) {
		if sp.Signal == out {
			fmt.Fprintf(&b, "%-12s %10.3f %14s\n", sp.Signal, sp.Exposure, "-")
			continue
		}
		fmt.Fprintf(&b, "%-12s %10.3f %14.3f\n", sp.Signal, sp.Exposure, pr.ImpactOn(sp, out))
	}
	return b.String()
}

// PermeabilityComparison renders paper-vs-measured permeabilities side
// by side with absolute differences, sorted by edge order.
func PermeabilityComparison(paperP, measured *core.Permeability) string {
	var b strings.Builder
	b.WriteString("Permeability comparison: paper (Table 1) vs measured (this reproduction)\n\n")
	fmt.Fprintf(&b, "%-12s -> %-12s %8s %9s %7s\n", "Input", "Output", "paper", "measured", "|diff|")
	var diffs []float64
	for _, e := range paperP.System().Edges() {
		pv, mv := paperP.Get(e), measured.Get(e)
		d := pv - mv
		if d < 0 {
			d = -d
		}
		diffs = append(diffs, d)
		fmt.Fprintf(&b, "%-12s -> %-12s %8.3f %9.3f %7.3f\n", e.From, e.To, pv, mv, d)
	}
	sort.Float64s(diffs)
	fmt.Fprintf(&b, "\nmean |diff| = %.3f, median = %.3f, max = %.3f\n",
		stats.Mean(diffs), diffs[len(diffs)/2], diffs[len(diffs)-1])
	return b.String()
}

// SweepGrid renders a what-if containment sweep (cmd/place -sweep) as a
// module × factor table of total-criticality deltas, with the
// highest-criticality internal signal of each cell.
func SweepGrid(modules []model.ModuleID, factors []float64, res *analytic.SweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "What-if containment sweep: Σ criticality delta by module × scale factor (baseline Σ = %.3f)\n\n", res.BaseTotal)
	fmt.Fprintf(&b, "%-12s", "Module")
	for _, f := range factors {
		fmt.Fprintf(&b, " %10s", fmt.Sprintf("×%.2f", f))
	}
	b.WriteString("\n")
	for mi, mod := range modules {
		fmt.Fprintf(&b, "%-12s", mod)
		for fi := range factors {
			cell := res.Cells[mi*len(factors)+fi]
			fmt.Fprintf(&b, " %+10.3f", cell.Delta)
		}
		b.WriteString("\n")
	}
	b.WriteString("\nMost critical internal signal per module at the strongest containment (first factor):\n")
	for mi, mod := range modules {
		cell := res.Cells[mi*len(factors)]
		fmt.Fprintf(&b, "  %-12s %s (C=%.3f)\n", mod, cell.Top, cell.TopCriticality)
	}
	return b.String()
}
