package analytic

import (
	"cmp"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/model"
)

// Cell is one point of a what-if sweep: the profile of the system with
// one module's permeabilities scaled by one factor.
type Cell struct {
	Module model.ModuleID
	Factor float64
	// TotalCriticality is Σ_s C_s over every signal — the scalar
	// "criticality mass" the sweep compares across cells.
	TotalCriticality float64
	// Delta is TotalCriticality minus the unscaled baseline's.
	Delta float64
	// Top is the highest-criticality signal other than the system
	// outputs themselves (whose criticality is pinned at C_o by Eq. 4),
	// with Ranked's name tiebreak; TopCriticality is its value.
	Top            model.SignalID
	TopCriticality float64
}

// SweepResult is a full module × factor grid plus its baseline.
type SweepResult struct {
	// BaseTotal is Σ_s C_s of the unscaled matrix.
	BaseTotal float64
	// Cells holds one entry per (module, factor), modules outer,
	// factors inner, in the order given to Sweep.
	Cells []Cell
}

// Sweep profiles every (module, factor) containment hypothesis on a
// worker pool sharing one engine. Because rows are memoized by
// downstream-cone content, each cell pays only for the sources whose
// cone contains the scaled module; everything else is a cache hit. The
// result is deterministic and independent of the worker count.
func Sweep(e *Engine, p *core.Permeability, modules []model.ModuleID, factors []float64, workers int) (*SweepResult, error) {
	if e == nil {
		e = Shared()
	}
	sys := p.System()
	for _, m := range modules {
		if _, ok := sys.Module(m); !ok {
			return nil, fmt.Errorf("analytic: unknown module %q", m)
		}
	}
	for _, f := range factors {
		if err := core.CheckScaleFactor(f); err != nil {
			return nil, err
		}
	}
	if workers < 1 {
		workers = 1
	}

	base, err := e.Profile(p)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{
		BaseTotal: totalCriticality(base.Signals()),
		Cells:     make([]Cell, len(modules)*len(factors)),
	}

	jobs := make(chan int)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range jobs {
				mod := modules[j/len(factors)]
				factor := factors[j%len(factors)]
				scaled, err := p.ScaleModule(mod, factor)
				if err == nil {
					var pr *core.Profile
					pr, err = e.Profile(scaled)
					if err == nil {
						res.Cells[j] = makeCell(mod, factor, pr, res.BaseTotal)
					}
				}
				if err != nil && errs[w] == nil {
					errs[w] = fmt.Errorf("analytic: sweep %s × %v: %w", mod, factor, err)
				}
			}
		}(w)
	}
	for j := range res.Cells {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

func makeCell(mod model.ModuleID, factor float64, pr *core.Profile, baseTotal float64) Cell {
	sigs := pr.Signals()
	c := Cell{
		Module:           mod,
		Factor:           factor,
		TotalCriticality: totalCriticality(sigs),
	}
	c.Delta = c.TotalCriticality - baseTotal
	// Ranked(ByCriticality)'s first non-output, found by one scan with
	// the same order: higher criticality first, then the smaller name.
	var top *core.SignalProfile
	for i := range sigs {
		sp := &sigs[i]
		if sp.Kind == model.KindSystemOutput {
			continue
		}
		if top == nil {
			top = sp
		} else if o := cmp.Compare(sp.Criticality, top.Criticality); o > 0 || o == 0 && sp.Signal < top.Signal {
			top = sp
		}
	}
	if top != nil {
		c.Top, c.TopCriticality = top.Signal, top.Criticality
	}
	return c
}

func totalCriticality(sigs []core.SignalProfile) float64 {
	var sum float64
	for _, sp := range sigs {
		sum += sp.Criticality
	}
	return sum
}
