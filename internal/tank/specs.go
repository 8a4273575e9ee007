package tank

import (
	"repro/internal/ea"
	"repro/internal/erm"
)

// Names of the executable assertions guarding the tank signals. The
// bounds are tuned against the fault-free workload grid (all default
// cases, multiple seeds) with 2-4x margin over the observed fault-free
// dynamics, the same methodology the arrestment target's EA1-EA7 use.
const (
	TEALevel  = "TEA-level"  // level: range and rate
	TEATrend  = "TEA-trend"  // trend: range and rate
	TEAInflow = "TEA-inflow" // inflow: range and rate
	TEAFlw    = "TEA-flw"    // FLW_CNT: bounded counter increments
	TEAValve  = "TEA-valve"  // VALVE: range and rate
)

// AllEASpecs returns the experience-based assertion set for the tank:
// one assertion on every internally generated non-boolean signal that
// admits a meaningful bound (cmd slews across its full width by design,
// so no range or rate assertion separates corruption from control
// action; ALARM is a 2-bit enum guarded by the failure classifier).
func AllEASpecs() []ea.Spec {
	return []ea.Spec{
		{
			// The filtered level tracks the slow plant: fault-free it
			// stays well inside 440..560 units and moves at most 4
			// units per period.
			Name: TEALevel, Signal: SigLevel, Kind: ea.KindBehaviour,
			Min: 50, Max: 990, MaxUp: 24, MaxDown: 24, WarmupChecks: 3,
		},
		{
			// The quantized trend is +-4 units fault-free.
			Name: TEATrend, Signal: SigTrend, Kind: ea.KindBehaviour,
			Min: -30, Max: 30, MaxUp: 24, MaxDown: 24, WarmupChecks: 3,
		},
		{
			// The windowed pulse count peaks at 27 at the highest
			// inflow; window updates jump by up to 19 units.
			Name: TEAInflow, Signal: SigInflow, Kind: ea.KindBehaviour,
			Min: 0, Max: 60, MaxUp: 40, MaxDown: 40, WarmupChecks: 3,
		},
		{
			// The hardware flow counter gains at most 2 counts per
			// period at the highest inflow.
			Name: TEAFlw, Signal: SigFlwCnt, Kind: ea.KindCounter,
			MinStep: 0, MaxStep: 8, WrapWidth: 16, WarmupChecks: 2,
		},
		{
			// ACT slew-limits the valve to 8 units per invocation; the
			// 0/255 rails are saturation-exempt.
			Name: TEAValve, Signal: SigValve, Kind: ea.KindBehaviour,
			Min: 0, Max: 255, MaxUp: 24, MaxDown: 24, WarmupChecks: 3,
		},
	}
}

// EHSet is the experience-based placement over the tank signals.
func EHSet() []string {
	return []string{TEALevel, TEATrend, TEAInflow, TEAFlw, TEAValve}
}

// PASet is the exposure-selected placement: the level/valve chain that
// feeds the criticality-1.0 VALVE output dominates signal exposure.
func PASet() []string {
	return []string{TEALevel, TEAValve}
}

// ExtendedSet is the extended analytical placement; as on the
// arrestment target it coincides with the experience-based set.
func ExtendedSet() []string {
	return EHSet()
}

// DefaultERMSpecs returns recovery wrappers for the tank: rate-based
// wrappers on the level/valve chain plus a range wrapper on the window
// pulse count, with bounds loose enough to stay silent across the
// fault-free workload grid.
func DefaultERMSpecs() []erm.Spec {
	return []erm.Spec{
		{
			Name: "ERM-level", Signal: SigLevel,
			Min: 0, Max: 1023, MaxUp: 30, MaxDown: 30,
			Policy: erm.PolicyHoldLast, WarmupWrites: 4,
		},
		{
			Name: "ERM-inflow", Signal: SigInflow,
			Min: 0, Max: 80, MaxUp: 60, MaxDown: 60,
			Policy: erm.PolicyHoldLast, WarmupWrites: 4,
		},
		{
			Name: "ERM-valve", Signal: SigValve,
			Min: 0, Max: 255, MaxUp: 30, MaxDown: 30,
			Policy: erm.PolicyClamp, WarmupWrites: 4,
		},
	}
}
