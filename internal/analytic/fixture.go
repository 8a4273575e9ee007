package analytic

import (
	_ "embed"
	"fmt"
	"math"

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
// the fixpoint solver and MonteCarloImpact on the cyclic fixture, used
// by TestCyclicFixtureAgreesWithMonteCarlo.
const CyclicTolerance = 0.05

// CyclicFixture returns a small system whose positive-permeability
// graph has a genuine cycle (b → fb → b through SPLIT and LOOP), so the
// series solver does not apply and the engine must fall back to the
// fixpoint. The wiring is in cyclic_fixture.json — also a test of the
// model JSON loader on cyclic inputs.
func CyclicFixture() (*model.System, *core.Permeability) {
	sys, err := model.UnmarshalSystem(cyclicFixtureJSON)
	if err != nil {
		panic(fmt.Sprintf("analytic: embedded cyclic fixture: %v", err))
	}
	p := core.NewPermeability(sys)
	p.MustSet("SRC", 1, 1, 0.8)   // in → a
	p.MustSet("LOOP", 1, 1, 0.7)  // a → b
	p.MustSet("LOOP", 2, 1, 0.25) // fb → b (closes the loop)
	p.MustSet("SPLIT", 1, 1, 0.4) // b → fb
	p.MustSet("SPLIT", 1, 2, 0.6) // b → out
	return sys, p
}

// Grid returns a layered synthetic system for scaling benchmarks:
// `layers` ranks of `width` signals, every signal of rank r+1 produced
// by a module reading two neighbouring signals of rank r. The
// reconvergent fan-in doubles the simple-path count per layer (2^layers
// paths from a rank-0 signal), which is exactly the shape that blows up
// tree enumeration while the solver's sweeps stay O(edges).
//
// Permeabilities are deterministic pseudo-values in [0.35, 0.85]; the
// last rank's signals are system outputs with criticality spread over
// (0, 1]. Rank-0 module IDs follow "M_0_<i>", so benchmarks can scale
// a near-source module and measure the incremental cone.
func Grid(layers, width int) (*model.System, *core.Permeability) {
	if layers < 2 || width < 2 {
		panic("analytic: Grid needs layers >= 2 and width >= 2")
	}
	b := model.NewBuilder(fmt.Sprintf("grid-%dx%d", layers, width))
	id := func(l, i int) model.SignalID {
		return model.SignalID(fmt.Sprintf("s_%d_%d", l, i))
	}
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			switch l {
			case 0:
				b.AddSignal(id(l, i), model.Uint(16), model.AsSystemInput())
			case layers - 1:
				crit := float64(i+1) / float64(width)
				b.AddSignal(id(l, i), model.Uint(16), model.AsSystemOutput(crit))
			default:
				b.AddSignal(id(l, i), model.Uint(16))
			}
		}
	}
	for l := 1; l < layers; l++ {
		for i := 0; i < width; i++ {
			mid := model.ModuleID(fmt.Sprintf("M_%d_%d", l-1, i))
			b.AddModule(mid,
				model.In(id(l-1, i), id(l-1, (i+1)%width)),
				model.Out(id(l, i)))
		}
	}
	sys := b.MustBuild()
	p := core.NewPermeability(sys)
	k := 0
	for _, e := range sys.Edges() {
		// Deterministic low-discrepancy values: frac(golden ratio · k).
		frac := 0.6180339887498949 * float64(k+1)
		frac -= math.Floor(frac)
		if err := p.SetEdge(e, 0.35+0.5*frac); err != nil {
			panic(err)
		}
		k++
	}
	return sys, p
}
