package oracle

import (
	_ "embed"
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
)

//go:embed cyclic_fixture.json
var cyclicFixtureJSON []byte

// CyclicLoopGain is the product of the cyclic fixture's feedback-loop
// permeabilities (b→fb times fb→b). The fixpoint solver's
// over-approximation of the sampled propagation probability is bounded
// by gain/(1−gain) relative to the loop entry (docs/analytic.md), which
// with the Monte Carlo noise floor motivates CyclicTolerance.
const CyclicLoopGain = 0.4 * 0.25

// CyclicTolerance is the documented absolute agreement bound between
// the analytic fixpoint solver and MonteCarloImpact on the cyclic
// fixture, used by internal/analytic's
// TestCyclicFixtureAgreesWithMonteCarlo.
const CyclicTolerance = 0.05

// CyclicFixture returns a small system whose positive-permeability
// graph has a genuine cycle (b → fb → b through SPLIT and LOOP), so the
// analytic series solver does not apply and the engine must fall back
// to the fixpoint. The wiring is in cyclic_fixture.json — also a test
// of the model JSON loader on cyclic inputs.
func CyclicFixture() (*model.System, *core.Permeability) {
	sys, err := model.UnmarshalSystem(cyclicFixtureJSON)
	if err != nil {
		panic(fmt.Sprintf("oracle: embedded cyclic fixture: %v", err))
	}
	p := core.NewPermeability(sys)
	p.MustSet("SRC", 1, 1, 0.8)   // in → a
	p.MustSet("LOOP", 1, 1, 0.7)  // a → b
	p.MustSet("LOOP", 2, 1, 0.25) // fb → b (closes the loop)
	p.MustSet("SPLIT", 1, 1, 0.4) // b → fb
	p.MustSet("SPLIT", 1, 2, 0.6) // b → out
	return sys, p
}
