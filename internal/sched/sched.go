// Package sched implements the slot-based, non-preemptive executive that
// runs a modular system (paper Section 4.1: "The scheduling is slot-based
// and non-preemptive"). Time advances in fixed slots; each slot first runs
// the always-scheduled modules (the target's CLOCK), then the modules
// assigned to the current slot number. The slot number can be taken from a
// signal on the bus — the target publishes it as ms_slot_nbr — so that
// errors in that signal genuinely disturb scheduling, as they would on the
// real system.
package sched

import (
	"fmt"
	"slices"

	"repro/internal/model"
)

// Table is a static cyclic schedule.
type Table struct {
	// SlotMs is the slot length in milliseconds.
	SlotMs int64
	// Every lists modules invoked at the start of every slot, in order.
	Every []model.ModuleID
	// Slots assigns modules to slot numbers 0..len(Slots)-1. A slot may
	// be empty.
	Slots [][]model.ModuleID
	// Selector optionally names a bus signal holding the current slot
	// number (taken modulo len(Slots)). When empty the scheduler uses its
	// own internal counter.
	Selector model.SignalID
}

// Validate checks the table against a system description.
func (t Table) Validate(sys *model.System) error {
	if t.SlotMs <= 0 {
		return fmt.Errorf("sched: SlotMs must be positive, got %d", t.SlotMs)
	}
	if len(t.Slots) == 0 {
		return fmt.Errorf("sched: table has no slots")
	}
	check := func(id model.ModuleID) error {
		if _, ok := sys.Module(id); !ok {
			return fmt.Errorf("sched: table references unknown module %q", id)
		}
		return nil
	}
	for _, id := range t.Every {
		if err := check(id); err != nil {
			return err
		}
	}
	for _, slot := range t.Slots {
		for _, id := range slot {
			if err := check(id); err != nil {
				return err
			}
		}
	}
	if t.Selector != "" {
		if _, ok := sys.Signal(t.Selector); !ok {
			return fmt.Errorf("sched: selector signal %q not in system", t.Selector)
		}
	}
	return nil
}

// Hook is a callback invoked around slots with the current time.
// Pre-slot hooks drive the environment (plant simulation, sensor
// registers); post-slot hooks host monitors (executable assertions,
// trace bookkeeping, fault-injection ticks).
type Hook func(nowMs int64)

// StepAction is a StepFilter verdict for one scheduled module step.
type StepAction int

const (
	// StepRun executes the step normally.
	StepRun StepAction = iota
	// StepSkip omits the step entirely this slot (omission fault). The
	// module's invocation counter does not advance.
	StepSkip
	// StepDefer postpones the step to the end of the slot: deferred
	// steps run after the slot's normal entries, in their original
	// order, before the post-slot hooks fire (timing/late-dispatch
	// fault).
	StepDefer
)

// StepFilter inspects a scheduled module step before it executes and
// decides whether it runs, is skipped, or is deferred to the end of the
// slot. Filters are the seam fault-injection strategies use to model
// timing and omission errors in the executive itself; when no filter is
// installed the scheduler's dispatch path is unchanged. With several
// filters installed, the first verdict other than StepRun wins.
type StepFilter func(id model.ModuleID, nowMs int64) StepAction

// entry is a pre-resolved dispatch slot: the registered behaviour, its
// declaration, and a pointer to its invocation counter. Resolving these
// once (on first RunSlot) removes the per-step map lookups from the
// simulation inner loop.
type entry struct {
	run     model.Runnable
	decl    *model.ModuleDecl
	invoked *int64
}

// Scheduler executes a system according to a Table. Create with New; the
// zero value is not usable.
type Scheduler struct {
	table   Table
	bus     *model.Bus
	mods    map[model.ModuleID]model.Runnable
	nowMs   int64
	slot    int
	pre     []Hook
	post    []Hook
	filters []StepFilter
	defers  []*entry                  // scratch for StepDefer verdicts, reused across slots
	invoked map[model.ModuleID]*int64 // invocation counts, for accounting
	counts  []*int64                  // the same counters in registration order
	ending  bool                      // post-slot hooks of the current slot are running

	// Compiled dispatch state, built lazily on the first RunSlot after
	// registration (registering a module invalidates it).
	compiled  bool
	every     []entry
	slots     [][]entry
	selIdx    int // dense index of the selector signal, -1 when unset
	exec      *model.Exec
	selModulo model.Word
}

// New creates a scheduler over the bus with the given table. All modules
// referenced by the table must be registered before the first RunSlot.
func New(bus *model.Bus, table Table) (*Scheduler, error) {
	if err := table.Validate(bus.System()); err != nil {
		return nil, err
	}
	return &Scheduler{
		table:   table,
		bus:     bus,
		mods:    make(map[model.ModuleID]model.Runnable),
		invoked: make(map[model.ModuleID]*int64),
		exec:    model.NewExec(bus, nil, 0),
	}, nil
}

// Register attaches the behaviour for one module.
func (s *Scheduler) Register(r model.Runnable) error {
	id := r.ModuleID()
	if _, ok := s.bus.System().Module(id); !ok {
		return fmt.Errorf("sched: behaviour for unknown module %q", id)
	}
	if _, dup := s.mods[id]; dup {
		return fmt.Errorf("sched: duplicate behaviour for module %q", id)
	}
	s.mods[id] = r
	n := new(int64)
	s.invoked[id] = n
	s.counts = append(s.counts, n)
	s.compiled = false
	return nil
}

// OnPreSlot installs an environment hook run before each slot.
func (s *Scheduler) OnPreSlot(h Hook) { s.pre = append(s.pre, h) }

// OnPostSlot installs a monitor hook run after each slot.
func (s *Scheduler) OnPostSlot(h Hook) { s.post = append(s.post, h) }

// OnStep installs a step filter consulted before every scheduled module
// step (see StepFilter).
func (s *Scheduler) OnStep(f StepFilter) { s.filters = append(s.filters, f) }

// ResetHooks removes all pre- and post-slot hooks and step filters,
// keeping the backing arrays so re-installation after a rig reset does
// not allocate.
func (s *Scheduler) ResetHooks() {
	s.pre = s.pre[:0]
	s.post = s.post[:0]
	s.filters = s.filters[:0]
}

// NowMs returns the elapsed scheduler time in milliseconds.
func (s *Scheduler) NowMs() int64 { return s.nowMs }

// Reset rewinds time and resets every registered module and the bus.
// Hooks stay installed.
func (s *Scheduler) Reset() {
	s.nowMs = 0
	s.slot = 0
	s.bus.Reset()
	for _, m := range s.mods {
		m.Reset()
	}
	for _, n := range s.invoked {
		*n = 0
	}
}

// compile resolves the table's module IDs to registered behaviours and
// the selector signal to its dense index.
func (s *Scheduler) compile() error {
	resolve := func(id model.ModuleID) (entry, error) {
		r, ok := s.mods[id]
		if !ok {
			return entry{}, fmt.Errorf("sched: module %q scheduled but not registered", id)
		}
		decl, _ := s.bus.System().Module(id)
		return entry{run: r, decl: decl, invoked: s.invoked[id]}, nil
	}
	s.every = s.every[:0]
	for _, id := range s.table.Every {
		e, err := resolve(id)
		if err != nil {
			return err
		}
		s.every = append(s.every, e)
	}
	s.slots = s.slots[:0]
	for _, slot := range s.table.Slots {
		var es []entry
		for _, id := range slot {
			e, err := resolve(id)
			if err != nil {
				return err
			}
			es = append(es, e)
		}
		s.slots = append(s.slots, es)
	}
	s.selIdx = -1
	if s.table.Selector != "" {
		i, ok := s.bus.System().SignalIndex(s.table.Selector)
		if !ok {
			return fmt.Errorf("sched: selector signal %q not in system", s.table.Selector)
		}
		s.selIdx = i
	}
	s.selModulo = model.Word(len(s.table.Slots))
	s.compiled = true
	return nil
}

// slotIndex returns the table slot to run now: the clock's slot, or
// the selector signal's value modulo the table length. A selector
// already in range, the usual case, costs no division.
func (s *Scheduler) slotIndex() int {
	if s.selIdx < 0 {
		return s.slot
	}
	v, n := s.bus.PeekIdx(s.selIdx), s.selModulo
	if 0 <= v && v < n {
		return int(v)
	}
	return int(((v % n) + n) % n)
}

// RunSlot executes exactly one slot: pre hooks, always-modules, the
// current slot's modules, post hooks; then advances time by SlotMs.
func (s *Scheduler) RunSlot() error {
	if !s.compiled {
		if err := s.compile(); err != nil {
			return err
		}
	}
	for _, h := range s.pre {
		h(s.nowMs)
	}
	if len(s.filters) == 0 {
		// Fast path: no step filters installed, dispatch directly.
		for i := range s.every {
			s.step(&s.every[i])
		}
		slot := s.slots[s.slotIndex()]
		for i := range slot {
			s.step(&slot[i])
		}
	} else {
		s.defers = s.defers[:0]
		for i := range s.every {
			s.filteredStep(&s.every[i])
		}
		slot := s.slots[s.slotIndex()]
		for i := range slot {
			s.filteredStep(&slot[i])
		}
		for _, e := range s.defers {
			s.step(e)
		}
	}
	s.ending = true
	for _, h := range s.post {
		h(s.nowMs)
	}
	s.nowMs, s.slot = s.clock()
	s.ending = false
	return nil
}

// clock returns the time and slot counter the scheduler is at: while
// post-slot hooks run, those the next slot starts from.
func (s *Scheduler) clock() (nowMs int64, slot int) {
	if !s.ending {
		return s.nowMs, s.slot
	}
	return s.nowMs + s.table.SlotMs, (s.slot + 1) % len(s.table.Slots)
}

// State is a scheduler's dynamic state: the clock, the internal slot
// counter and the per-module invocation counts in registration order.
// Module state lives in the memory map and signals on the bus; a rig
// checkpoint saves those alongside.
type State struct {
	NowMs   int64
	Slot    int
	Invoked []int64
}

// Save copies the scheduler's state into st, reusing its storage.
// Called from a post-slot hook it records the state the next slot
// starts from, so a checkpoint taken there restores to the start of
// the following slot.
func (s *Scheduler) Save(st *State) {
	st.NowMs, st.Slot = s.clock()
	st.Invoked = slices.Grow(st.Invoked[:0], len(s.counts))
	for _, n := range s.counts {
		st.Invoked = append(st.Invoked, *n)
	}
}

// Restore puts the scheduler back into a saved state. Call it between
// slots, on a scheduler built with the same table and registrations.
func (s *Scheduler) Restore(st *State) {
	s.nowMs, s.slot = st.NowMs, st.Slot
	for i, n := range s.counts {
		*n = st.Invoked[i]
	}
}

// Matches reports whether the scheduler is in the saved state, with
// the same reading of the clock as Save.
func (s *Scheduler) Matches(st *State) bool {
	now, slot := s.clock()
	if now != st.NowMs || slot != st.Slot || len(st.Invoked) != len(s.counts) {
		return false
	}
	for i, n := range s.counts {
		if *n != st.Invoked[i] {
			return false
		}
	}
	return true
}

func (s *Scheduler) step(e *entry) {
	s.exec.Bind(e.decl, s.nowMs)
	e.run.Step(s.exec)
	*e.invoked++
}

// filteredStep consults the installed step filters and runs, skips or
// defers the entry accordingly. The first non-StepRun verdict wins.
func (s *Scheduler) filteredStep(e *entry) {
	for _, f := range s.filters {
		switch f(e.decl.ID, s.nowMs) {
		case StepSkip:
			return
		case StepDefer:
			s.defers = append(s.defers, e)
			return
		}
	}
	s.step(e)
}

// RunFor runs slots until durationMs of scheduler time has elapsed.
func (s *Scheduler) RunFor(durationMs int64) error {
	end := s.nowMs + durationMs
	for s.nowMs < end {
		if err := s.RunSlot(); err != nil {
			return err
		}
	}
	return nil
}

// RunUntil runs slots until done returns true (checked after every slot)
// or maxMs of scheduler time has elapsed. It reports whether done fired.
func (s *Scheduler) RunUntil(done func() bool, maxMs int64) (bool, error) {
	end := s.nowMs + maxMs
	for s.nowMs < end {
		if err := s.RunSlot(); err != nil {
			return false, err
		}
		if done() {
			return true, nil
		}
	}
	return false, nil
}
