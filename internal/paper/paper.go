// Package paper ships the published data of Hiller, Jhumka and Suri
// (DSN 2002) that the commands consume: the target system and the
// estimated error permeability values of Table 1. Feeding Table 1 into
// the analysis framework must regenerate every derived artifact exactly
// (to the paper's printed precision) — the analytical reproduction mode
// of DESIGN.md §3. The published derived values (Tables 2, 4 and 5,
// Figure 4 and the selections of Sections 5 and 10) live in the
// package's tests, which enforce that.
package paper

import (
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/target"
)

// System returns the target system description (Figure 1).
func System() *model.System { return target.NewSystem() }

// Table1 returns the paper's estimated error permeability matrix: the 25
// input/output pair values of Table 1.
func Table1() *core.Permeability {
	sys := System()
	p := core.NewPermeability(sys)
	// CLOCK: in 1 = i; out 1 = ms_slot_nbr, out 2 = mscnt.
	p.MustSet(target.ModClock, 1, 1, 1.000)
	p.MustSet(target.ModClock, 1, 2, 0.000)
	// DIST_S: in 1..3 = PACNT, TIC1, TCNT; out 1..3 = pulscnt,
	// slow_speed, stopped.
	p.MustSet(target.ModDistS, 1, 1, 0.957)
	p.MustSet(target.ModDistS, 2, 1, 0.000)
	p.MustSet(target.ModDistS, 3, 1, 0.000)
	p.MustSet(target.ModDistS, 1, 2, 0.010)
	p.MustSet(target.ModDistS, 2, 2, 0.000)
	p.MustSet(target.ModDistS, 3, 2, 0.000)
	p.MustSet(target.ModDistS, 1, 3, 0.000)
	p.MustSet(target.ModDistS, 2, 3, 0.000)
	p.MustSet(target.ModDistS, 3, 3, 0.000)
	// PRES_S: in 1 = ADC; out 1 = IsValue.
	p.MustSet(target.ModPresS, 1, 1, 0.000)
	// CALC: in 1..5 = i, mscnt, pulscnt, slow_speed, stopped; out 1 = i,
	// out 2 = SetValue.
	p.MustSet(target.ModCalc, 1, 1, 1.000)
	p.MustSet(target.ModCalc, 2, 1, 0.000)
	p.MustSet(target.ModCalc, 3, 1, 0.494)
	p.MustSet(target.ModCalc, 4, 1, 0.000)
	p.MustSet(target.ModCalc, 5, 1, 0.013)
	p.MustSet(target.ModCalc, 1, 2, 0.056)
	p.MustSet(target.ModCalc, 2, 2, 0.530)
	p.MustSet(target.ModCalc, 3, 2, 0.000)
	p.MustSet(target.ModCalc, 4, 2, 0.892)
	p.MustSet(target.ModCalc, 5, 2, 0.000)
	// V_REG: in 1 = SetValue, in 2 = IsValue; out 1 = OutValue.
	p.MustSet(target.ModVReg, 1, 1, 0.885)
	p.MustSet(target.ModVReg, 2, 1, 0.896)
	// PRES_A: in 1 = OutValue; out 1 = TOC2.
	p.MustSet(target.ModPresA, 1, 1, 0.875)
	return p
}
