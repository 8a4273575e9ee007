package memmap

import (
	"fmt"

	"repro/internal/model"
)

// Liveness observes one fault-free run and decides, per cell, whether a
// periodic bit-flip campaign against that cell could ever be observed —
// the def/use analysis behind equivalence-class pruning (in the style
// of DETOx: an injection into a cell that is dead, or overwritten
// before its next read, provably shares the fault-free outcome).
//
// The profiler models the injection clock of fi.PeriodicInjector: ticks
// at fromMs, fromMs+periodMs, ... fire in a scheduler pre-slot hook,
// i.e. before any module access in the same millisecond. Two masking
// criteria fall out, one per injection style:
//
//   - Persistent (RAM-style, corrupt-in-place): a read at time r can
//     observe the corruption iff some tick lies in (a, r], where a is
//     the cell's previous access (read or write; -1 if none). A write
//     re-defines the cell and clears any pending corruption from the
//     reader's point of view.
//   - Transient (stack-style, armed corruption of the next read): any
//     read at or after the first tick observes a corruption — an
//     intervening write does not disarm the injector.
//
// The soundness argument is inductive: as long as no corrupted value
// has been read, the faulted run is bit-identical to the fault-free
// run, so the fault-free access trace remains the valid predictor of
// the next access. The first vulnerable access, if any, is therefore
// correctly identified from the profile alone. The analysis is
// conservative in exactly one direction — a cell it calls vulnerable
// may still mask in practice (e.g. flips cancelling over an even
// number of periods); such targets are simply executed.
//
// Install Hook as a scheduler pre-slot hook and ReadHook/WriteHook on
// the profiled Map, run the fault-free scenario to completion, then
// query PersistentMasked/TransientMasked.
type Liveness struct {
	periodMs, fromMs int64
	nowMs            int64

	last       []int64 // last access time per cell, -1 = never accessed
	persistent []bool  // some read could observe an in-place periodic flip
	transient  []bool  // some read at/after the first tick (armed-read observable)
	reads      []int
	writes     []int
}

// NewLiveness builds a profiler for the periodic injection clock
// (periodMs, fromMs) over the cells of m. Cells must all be allocated
// before profiling starts (module construction precedes hook
// installation on a Rig, so this holds by construction).
func NewLiveness(m *Map, periodMs, fromMs int64) (*Liveness, error) {
	if periodMs <= 0 {
		return nil, fmt.Errorf("memmap: liveness period %d must be positive", periodMs)
	}
	if fromMs < 0 {
		return nil, fmt.Errorf("memmap: liveness start %d must not be negative", fromMs)
	}
	n := len(m.infos)
	l := &Liveness{
		periodMs:   periodMs,
		fromMs:     fromMs,
		last:       make([]int64, n),
		persistent: make([]bool, n),
		transient:  make([]bool, n),
		reads:      make([]int, n),
		writes:     make([]int, n),
	}
	for i := range l.last {
		l.last[i] = -1
	}
	return l, nil
}

// Hook is the scheduler pre-slot hook maintaining the profiler's clock;
// it must be installed so accesses carry their slot time.
func (l *Liveness) Hook(nowMs int64) { l.nowMs = nowMs }

// ReadHook returns the read observer. It never alters the value read.
func (l *Liveness) ReadHook() ReadHook {
	return func(info CellInfo, raw model.Word) model.Word {
		i := int(info.ID)
		if i >= 0 && i < len(l.last) {
			r := l.nowMs
			if r >= l.fromMs {
				l.transient[i] = true
				// Latest tick at or before r; ticks precede same-ms
				// accesses, so a tick after the previous access and at
				// or before this read is observable.
				tick := l.fromMs + (r-l.fromMs)/l.periodMs*l.periodMs
				if tick > l.last[i] {
					l.persistent[i] = true
				}
			}
			l.last[i] = r
			l.reads[i]++
		}
		return raw
	}
}

// WriteHook returns the write observer: a write re-defines the cell.
func (l *Liveness) WriteHook() WriteHook {
	return func(info CellInfo, _ model.Word) {
		i := int(info.ID)
		if i >= 0 && i < len(l.last) {
			l.last[i] = l.nowMs
			l.writes[i]++
		}
	}
}

// PersistentMasked reports whether in-place periodic flips of the cell
// (fi.TargetRAMCell) are provably unobservable: no read of the cell
// ever follows a tick without an intervening write.
func (l *Liveness) PersistentMasked(id CellID) bool {
	return int(id) < len(l.persistent) && !l.persistent[id]
}

// TransientMasked reports whether armed read-corruptions of the cell
// (fi.TargetStackCell) are provably unobservable: the cell is never
// read at or after the first tick.
func (l *Liveness) TransientMasked(id CellID) bool {
	return int(id) < len(l.transient) && !l.transient[id]
}
