package ea

import (
	"fmt"
	"sort"

	"repro/internal/model"
)

// Bank is a set of assertions deployed on a system, checked together at a
// fixed period — mirroring the target, where "the EA's are all functions
// which are executed sequentially ... invoked with roughly the same
// period" (paper Section 6.1). Attach Hook as a scheduler post-slot hook.
type Bank struct {
	bus      *model.Bus
	periodMs int64
	asserts  []*Assertion
	sigIdx   []int // dense bus index of each assertion's signal
}

// NewBank deploys assertions for the given specs on the bus, checking
// every periodMs. Every spec's signal must exist in the bus's system.
func NewBank(bus *model.Bus, periodMs int64, specs []Spec) (*Bank, error) {
	if periodMs <= 0 {
		return nil, fmt.Errorf("ea: bank period %d must be positive", periodMs)
	}
	b := &Bank{
		bus:      bus,
		periodMs: periodMs,
		asserts:  make([]*Assertion, 0, len(specs)),
		sigIdx:   make([]int, 0, len(specs)),
	}
	seen := make(map[string]struct{}, len(specs))
	for _, s := range specs {
		i, ok := bus.System().SignalIndex(s.Signal)
		if !ok {
			return nil, fmt.Errorf("ea: spec %q guards unknown signal %q", s.Name, s.Signal)
		}
		if _, dup := seen[s.Name]; dup {
			return nil, fmt.Errorf("ea: duplicate assertion name %q", s.Name)
		}
		seen[s.Name] = struct{}{}
		a, err := New(s)
		if err != nil {
			return nil, err
		}
		b.asserts = append(b.asserts, a)
		b.sigIdx = append(b.sigIdx, i)
	}
	return b, nil
}

// Hook checks every assertion when nowMs falls on the bank period.
// Values are observed with Bus.PeekIdx, so checking never perturbs the
// run.
func (b *Bank) Hook(nowMs int64) {
	if nowMs%b.periodMs != 0 {
		return
	}
	for k, a := range b.asserts {
		a.Check(b.bus.PeekIdx(b.sigIdx[k]), nowMs)
	}
}

// Reset clears all assertion state and accounting.
func (b *Bank) Reset() {
	for _, a := range b.asserts {
		a.Reset()
	}
}

// Assertions returns the deployed assertions in spec order.
func (b *Bank) Assertions() []*Assertion {
	return append([]*Assertion(nil), b.asserts...)
}

// Assertion returns the named assertion.
func (b *Bank) Assertion(name string) (*Assertion, bool) {
	for _, a := range b.asserts {
		if a.spec.Name == name {
			return a, true
		}
	}
	return nil, false
}

// Detected reports whether any assertion fired this run.
func (b *Bank) Detected() bool {
	for _, a := range b.asserts {
		if a.Detected() {
			return true
		}
	}
	return false
}

// DetectedBy returns the names of the assertions that fired, sorted.
func (b *Bank) DetectedBy() []string {
	var out []string
	for _, a := range b.asserts {
		if a.Detected() {
			out = append(out, a.spec.Name)
		}
	}
	sort.Strings(out)
	return out
}

// TotalCost sums the resource footprint of the bank — the numbers
// compared in Table 3 (ROM and RAM) and the execution-time overhead
// argument of Section 6.1 (cycles per check period).
func (b *Bank) TotalCost() Cost {
	var c Cost
	for _, a := range b.asserts {
		c.ROMBytes += a.cost.ROMBytes
		c.RAMBytes += a.cost.RAMBytes
		c.Cycles += a.cost.Cycles
	}
	return c
}

// SubsetCost sums the footprint of the named assertions only.
func (b *Bank) SubsetCost(names []string) (Cost, error) {
	var c Cost
	for _, n := range names {
		a, ok := b.Assertion(n)
		if !ok {
			return Cost{}, fmt.Errorf("ea: unknown assertion %q", n)
		}
		c.ROMBytes += a.cost.ROMBytes
		c.RAMBytes += a.cost.RAMBytes
		c.Cycles += a.cost.Cycles
	}
	return c, nil
}
