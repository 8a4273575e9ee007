package tank

import (
	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/model"
)

// CriticalityReport ranks the tank's internal signals by impact on each
// output and by criticality under the declared output criticalities —
// the runtime multi-output demonstration of Eqs. 3–4.
type CriticalityReport struct {
	Signal      model.SignalID
	ImpactValve float64
	ImpactAlarm float64
	Criticality float64
}

// RankCriticality profiles the measured matrix and returns the internal
// signals ranked by criticality, descending.
func RankCriticality(m *core.Permeability) ([]CriticalityReport, error) {
	pr, err := analytic.Shared().Profile(m)
	if err != nil {
		return nil, err
	}
	var out []CriticalityReport
	for _, sp := range pr.Ranked(core.ByCriticality) {
		if sp.Kind != model.KindIntermediate {
			continue
		}
		out = append(out, CriticalityReport{
			Signal:      sp.Signal,
			ImpactValve: pr.ImpactOn(sp, SigValve),
			ImpactAlarm: pr.ImpactOn(sp, SigAlarm),
			Criticality: sp.Criticality,
		})
	}
	return out, nil
}
