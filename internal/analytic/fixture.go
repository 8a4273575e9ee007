package analytic

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/model"
)

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
