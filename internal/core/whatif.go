package core

import (
	"fmt"
	"math"

	"repro/internal/model"
)

// Clone returns an independent copy of the matrix.
func (p *Permeability) Clone() *Permeability {
	return &Permeability{sys: p.sys, values: p.Values()}
}

// CheckScaleFactor rejects a factor that cannot scale permeabilities:
// negative, NaN or infinite (0 × Inf is NaN, so an infinite factor
// would poison every zero-permeability pair).
func CheckScaleFactor(factor float64) error {
	if factor < 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		return fmt.Errorf("core: scale factor %v must be finite and non-negative", factor)
	}
	return nil
}

// ScaleModule returns a copy of the matrix with every input/output pair
// of the module scaled by factor (clamped to [0, 1]) — the what-if of
// adding containment to a module (factor < 1, e.g. a wrapper that masks
// 80% of propagating errors scales by 0.2) or of removing it
// (factor > 1). Use with CheckConformance to iterate on Section 9's
// process: find the violated condition, strengthen a module, re-profile.
func (p *Permeability) ScaleModule(mod model.ModuleID, factor float64) (*Permeability, error) {
	if err := CheckScaleFactor(factor); err != nil {
		return nil, err
	}
	lo, hi, ok := p.sys.ModuleEdges(mod)
	if !ok {
		return nil, fmt.Errorf("core: unknown module %q", mod)
	}
	cp := p.Clone()
	for i := lo; i < hi; i++ {
		cp.values[i] = min(1, cp.values[i]*factor)
	}
	return cp, nil
}
