package ea

import (
	"fmt"

	"repro/internal/model"
)

// WriteBank deploys assertions that check on every write to their
// guarded signal — the paper's integration, where EAs are functions
// executed inline with the software and see every produced value. The
// sampling Bank, by contrast, can miss transients that self-correct
// between check instants (see EXPERIMENTS.md, Table 4 discussion).
//
// Install Hook as a scheduler pre-slot hook (it keeps the clock used
// for latency accounting) and WriteHook on the bus.
type WriteBank struct {
	bus     *model.Bus
	asserts map[model.SignalID]*Assertion
	order   []*Assertion
	nowMs   int64
}

// NewWriteBank deploys write-triggered assertions for the specs. At
// most one assertion per signal (a write dispatches to its signal's
// assertion).
func NewWriteBank(bus *model.Bus, specs []Spec) (*WriteBank, error) {
	b := &WriteBank{
		bus:     bus,
		asserts: make(map[model.SignalID]*Assertion, len(specs)),
	}
	for _, s := range specs {
		if _, ok := bus.System().Signal(s.Signal); !ok {
			return nil, fmt.Errorf("ea: spec %q guards unknown signal %q", s.Name, s.Signal)
		}
		if _, dup := b.asserts[s.Signal]; dup {
			return nil, fmt.Errorf("ea: write bank already guards signal %q", s.Signal)
		}
		a, err := New(s)
		if err != nil {
			return nil, err
		}
		b.asserts[s.Signal] = a
		b.order = append(b.order, a)
	}
	return b, nil
}

// Hook maintains the bank clock; install as a pre-slot hook.
func (b *WriteBank) Hook(nowMs int64) { b.nowMs = nowMs }

// WriteHook returns the bus write hook dispatching checks. The checked
// value is the stored (post-mask) value, interpreted per the signal
// type — exactly what downstream readers will observe.
func (b *WriteBank) WriteHook() model.WriteHook {
	return func(port model.PortRef, sig model.SignalID, oldRaw, newRaw model.Word) {
		a, ok := b.asserts[sig]
		if !ok {
			return
		}
		s, _ := b.bus.System().Signal(sig)
		a.Check(s.Type.FromRaw(newRaw), b.nowMs)
	}
}

// Assertions returns the deployed assertions in spec order.
func (b *WriteBank) Assertions() []*Assertion {
	return append([]*Assertion(nil), b.order...)
}

// Reset clears all assertion state.
func (b *WriteBank) Reset() {
	for _, a := range b.order {
		a.Reset()
	}
}
