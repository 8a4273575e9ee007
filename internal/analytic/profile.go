package analytic

import "repro/internal/core"

// Profile computes the full dependability profile — Table 5's exposure,
// per-output impact, max impact, criticality and witness permeability
// for every signal — in one pass over the edges plus one solver row per
// signal, and returns it in the same core.Profile shape the placement
// rules and report tables consume. The rows are scoped to the system
// outputs, the only destinations a profile reads: each stops once the
// outputs have converged, with values bit-equal to full rows there.
// Each signal's Impacts slice belongs to its cached row and is shared
// with every profile that reads the row: read it, never write it.
//
// Semantics match core.BuildProfile: exposure sums producing-pair
// permeabilities in edge order (Eq. 1, non-weighted), impact is the
// max over per-output impacts in output declaration order, and
// criticality folds C_s = 1 − Π_o (1 − C_o·I(s→o)) (Eq. 4) over the
// outputs in declaration order with the same [0,1] clamp. On systems
// whose positive-permeability graph is acyclic — the arrestment target
// included — the impacts are Eq. 2 within Params.Tol, and the rankings
// are identical to the tree-based code except that signals whose tree
// values tie may trade places (pinned by
// TestArrestmentRankingsByteIdentical and FuzzAnalyticMatchesTree).
func (e *Engine) Profile(p *core.Permeability) (*core.Profile, error) {
	sc, ctx, err := e.contextFor(p)
	if err != nil {
		return nil, err
	}
	sys := p.System()
	n := sys.NumSignals()
	top := sc.top

	// Exposure (Eq. 1) and witness permeability in one edge pass. The
	// per-signal accumulation order equals core's InEdges order, so the
	// floating-point sums are identical.
	expo := make([]float64, n)
	maxIn := make([]float64, n)
	for i := range top.edges {
		w := ctx.perm[i]
		t := top.eTo[i]
		expo[t] += w
		if w > maxIn[t] {
			maxIn[t] = w
		}
	}

	pw := newPowers(ctx)
	defer pw.release()
	signals := make([]core.SignalProfile, 0, n)
	for s := 0; s < n; s++ {
		sig := sys.SignalAt(s)
		row := e.rowFor(sc, ctx, pw, int32(s), true)
		signals = append(signals, core.SignalProfile{
			Signal:            sig.ID,
			Kind:              sig.Kind,
			IsBool:            sig.IsBool(),
			Exposure:          expo[s],
			Impacts:           row.vals,
			Impact:            row.impact,
			Criticality:       row.criticality,
			MaxInPermeability: maxIn[s],
		})
	}
	return core.NewProfile(p, signals), nil
}
