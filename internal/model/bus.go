package model

import (
	"fmt"
	"slices"
)

// ReadHook intercepts a module's read of a signal. The fault injector
// uses read hooks to realize transient errors: the stored value stays
// intact but the reading module observes a corrupted word, matching
// injection "in the input signals of the modules" (paper Section 5.3).
// The hook receives the reading port and the raw stored value and returns
// the raw value the module should observe.
type ReadHook func(port PortRef, sig SignalID, raw Word) Word

// WriteHook observes a module's write to a signal, after width masking.
// The trace recorder attaches here.
type WriteHook func(port PortRef, sig SignalID, oldRaw, newRaw Word)

// WriteFilter may replace the value a module writes to a signal before
// it is stored. Error recovery mechanisms (containment wrappers) attach
// here: an implausible output can be substituted with a recovered value
// before it propagates. Filters receive and return interpreted values.
type WriteFilter func(port PortRef, sig SignalID, old, proposed Word) Word

// Bus holds the current value of every signal of a system and mediates
// all port I/O. It is the runtime counterpart of the static wiring graph.
// A Bus is not safe for concurrent use; the slot-based scheduler is
// strictly sequential, like the paper's single-processor target.
//
// Storage is a flat slice indexed by the system's dense signal indices
// (System.SignalIndex); the string-keyed methods resolve the index at
// the edge and the index-based methods are the allocation-free fast path
// used by the runtime layer.
type Bus struct {
	sys      *System
	values   []Word  // raw (masked) representations, dense signal index
	codecs   []Codec // the system's per-signal codecs, dense signal index
	reads    []ReadHook
	readIDs  []ReadHookID // reads[i] was installed as readIDs[i]
	lastRead ReadHookID   // the last ID OnRead handed out
	writes   []WriteHook
	filters  []WriteFilter
}

// NewBus creates a bus for the system with every signal at its declared
// initial value.
func NewBus(sys *System) *Bus {
	b := &Bus{
		sys:    sys,
		values: make([]Word, sys.NumSignals()),
		codecs: sys.codecs,
	}
	b.Reset()
	return b
}

// System returns the static description this bus instantiates.
func (b *Bus) System() *System { return b.sys }

// Reset restores every signal to its declared initial value and keeps
// installed hooks.
func (b *Bus) Reset() {
	for i, sig := range b.sys.sigList {
		b.values[i] = b.codecs[i].Encode(sig.Initial)
	}
}

// ReadHookID names one installation of a read hook (Bus.OnRead).
type ReadHookID uint64

// OnRead installs a read hook. Hooks run in installation order, each
// seeing the previous hook's result. The returned ID removes this
// installation with RemoveRead.
func (b *Bus) OnRead(h ReadHook) ReadHookID {
	b.lastRead++
	b.reads = append(b.reads, h)
	b.readIDs = append(b.readIDs, b.lastRead)
	return b.lastRead
}

// RemoveRead removes the read hook installed as id; the other hooks keep
// their order. It does nothing when that hook is already gone (removed,
// or cleared by ClearHooks). It must not be called while a read hook
// runs.
func (b *Bus) RemoveRead(id ReadHookID) {
	if i := slices.Index(b.readIDs, id); i >= 0 {
		b.reads = slices.Delete(b.reads, i, i+1)
		b.readIDs = slices.Delete(b.readIDs, i, i+1)
	}
}

// OnWrite installs a write hook. Hooks run in installation order.
func (b *Bus) OnWrite(h WriteHook) { b.writes = append(b.writes, h) }

// OnWriteFilter installs a write filter. Filters run in installation
// order, each seeing the previous filter's result, before write hooks
// observe the final stored value.
func (b *Bus) OnWriteFilter(f WriteFilter) { b.filters = append(b.filters, f) }

// ClearHooks removes all read hooks, write hooks and write filters. The
// backing arrays are kept so re-installing hooks after a reset does not
// allocate.
func (b *Bus) ClearHooks() {
	b.reads = b.reads[:0]
	b.readIDs = b.readIDs[:0]
	b.writes = b.writes[:0]
	b.filters = b.filters[:0]
}

// index resolves a signal to its dense index, panicking on unknown IDs.
func (b *Bus) index(op string, id SignalID) int {
	i, ok := b.sys.sigIdx[id]
	if !ok {
		panic(fmt.Sprintf("model: %s of unknown signal %q", op, id))
	}
	return i
}

// Peek returns the interpreted value of a signal without triggering read
// hooks. Monitors (EAs, trace recorders, failure classifiers) use Peek so
// that observing a signal can never perturb an experiment.
func (b *Bus) Peek(id SignalID) Word {
	return b.PeekIdx(b.index("Peek", id))
}

// PeekIdx is Peek by dense signal index (System.SignalIndex).
func (b *Bus) PeekIdx(i int) Word {
	return b.codecs[i].Decode(b.values[i])
}

// PeekRaw returns the stored bit pattern of a signal without hooks.
func (b *Bus) PeekRaw(id SignalID) Word {
	return b.PeekRawIdx(b.index("PeekRaw", id))
}

// PeekRawIdx is PeekRaw by dense signal index.
func (b *Bus) PeekRawIdx(i int) Word { return b.values[i] }

// Poke overwrites the stored value of a signal (interpreted domain)
// without triggering write hooks. The environment simulation uses Poke to
// drive system inputs; permanent-fault injectors use it to corrupt state.
func (b *Bus) Poke(id SignalID, v Word) {
	b.PokeIdx(b.index("Poke", id), v)
}

// PokeIdx is Poke by dense signal index.
func (b *Bus) PokeIdx(i int, v Word) {
	b.values[i] = b.codecs[i].Encode(v)
}

// PokeRaw overwrites the stored bit pattern without hooks, masking to the
// signal width.
func (b *Bus) PokeRaw(id SignalID, raw Word) {
	i := b.index("PokeRaw", id)
	b.values[i] = b.codecs[i].Encode(raw)
}

// readIdx performs a hooked port read of the signal at dense index i,
// returning the interpreted value; Exec.In calls it when read hooks are
// installed.
func (b *Bus) readIdx(port PortRef, id SignalID, i int) Word {
	raw, c := b.values[i], b.codecs[i]
	for _, h := range b.reads {
		raw = c.Encode(h(port, id, raw))
	}
	return c.Decode(raw)
}

// writeIdx performs a filtered, hooked port write of an interpreted
// value to the signal at dense index i; Exec.Out calls it when write
// hooks or filters are installed.
func (b *Bus) writeIdx(port PortRef, id SignalID, i int, v Word) {
	oldRaw, c := b.values[i], b.codecs[i]
	if len(b.filters) > 0 {
		old := c.Decode(oldRaw)
		for _, f := range b.filters {
			v = f(port, id, old, v)
		}
	}
	newRaw := c.Encode(v)
	b.values[i] = newRaw
	for _, h := range b.writes {
		h(port, id, oldRaw, newRaw)
	}
}

// SnapshotInto copies the raw value of every signal into dst, ordered by
// dense signal index, and returns the filled slice. It reuses dst's
// backing array when the capacity suffices, so recording paths can
// snapshot every period without allocating.
func (b *Bus) SnapshotInto(dst []Word) []Word {
	if cap(dst) < len(b.values) {
		dst = make([]Word, len(b.values))
	}
	dst = dst[:len(b.values)]
	copy(dst, b.values)
	return dst
}

// RestoreRaw overwrites every signal with the raw values of a
// SnapshotInto result taken from a bus of the same system, without
// hooks.
func (b *Bus) RestoreRaw(src []Word) { copy(b.values, src) }

// MatchesRaw reports whether every signal holds the raw value recorded
// in a SnapshotInto result.
func (b *Bus) MatchesRaw(src []Word) bool { return slices.Equal(b.values, src) }
