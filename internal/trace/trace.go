// Package trace records signal traces during a run and implements the
// Golden Run Comparison of the paper's fault-injection method (Section
// 5.3): the trace of each signal in an injection run is compared against
// the corresponding golden-run trace, and "the comparison stopped as soon
// as the first difference ... was encountered".
//
// Traces are columnar (one slice per signal) and sampled at a fixed
// period, matching the target's major control cycle, so that golden and
// injection runs line up sample-for-sample. Each sample is the signal's
// raw encoded word, the masked bit pattern the bus stores, in 32 bits:
// every width the model allows fits, and since a signal's codec maps
// raw words one-to-one onto values, two samples are equal exactly when
// the values they encode are.
package trace

import (
	"fmt"
	"sync"

	"repro/internal/model"
)

// Sample is one recorded value of a signal: its raw encoded word as the
// bus holds it, not the decoded value. The model's widths are at most
// 32 bits, so every raw word fits.
type Sample uint32

// Peek returns the sample a recorder takes of the signal at dense bus
// index i, without hooks. Online comparisons against a retained trace
// read the live bus through it.
func Peek(bus *model.Bus, i int) Sample { return Sample(bus.PeekRawIdx(i)) }

// Trace holds sampled values for a fixed set of signals.
type Trace struct {
	signals []model.SignalID
	index   map[model.SignalID]int
	cols    [][]Sample
	n       int
}

// newTrace creates an empty trace over the given signals whose columns
// have no storage yet.
func newTrace(signals []model.SignalID) *Trace {
	t := &Trace{
		signals: append([]model.SignalID(nil), signals...),
		index:   make(map[model.SignalID]int, len(signals)),
		cols:    make([][]Sample, len(signals)),
	}
	for i, s := range signals {
		if _, dup := t.index[s]; dup {
			panic(fmt.Sprintf("trace: duplicate signal %q", s))
		}
		t.index[s] = i
	}
	return t
}

// Signals returns the traced signals in column order.
func (t *Trace) Signals() []model.SignalID {
	return append([]model.SignalID(nil), t.signals...)
}

// Len returns the number of samples recorded.
func (t *Trace) Len() int { return t.n }

// Samples returns all raw samples of one signal without copying: the
// slice shares the trace's storage and must not be modified. Online
// comparisons against a retained golden trace read it sample by sample
// and compare it with Peek.
func (t *Trace) Samples(sig model.SignalID) []Sample { return t.column(sig) }

func (t *Trace) column(sig model.SignalID) []Sample {
	i, ok := t.index[sig]
	if !ok {
		panic(fmt.Sprintf("trace: unknown signal %q", sig))
	}
	return t.cols[i]
}

// Has reports whether the trace records the signal.
func (t *Trace) Has(sig model.SignalID) bool {
	_, ok := t.index[sig]
	return ok
}

// NoDifference is returned by FirstDifference when two traces agree over
// their common prefix.
const NoDifference = -1

// FirstDifference returns the index of the first sample at which the two
// traces disagree on sig, comparing over the shorter common length. It
// returns NoDifference if they agree. Raw words are compared; they are
// equal exactly when the decoded values are.
func FirstDifference(golden, injected *Trace, sig model.SignalID) int {
	g, i := golden.column(sig), injected.column(sig)
	n := len(g)
	if len(i) < n {
		n = len(i)
	}
	for k := 0; k < n; k++ {
		if g[k] != i[k] {
			return k
		}
	}
	return NoDifference
}

// Deviations runs FirstDifference for every signal of the golden trace,
// returning the first-difference index per signal (NoDifference if the
// signal never deviated). Signals missing from the injected trace are
// skipped.
func Deviations(golden, injected *Trace) map[model.SignalID]int {
	out := make(map[model.SignalID]int, len(golden.signals))
	for _, s := range golden.signals {
		if !injected.Has(s) {
			continue
		}
		out[s] = FirstDifference(golden, injected, s)
	}
	return out
}

// Recorder samples a bus into a Trace at a fixed period. Attach Hook as a
// scheduler post-slot hook.
//
// The recorder resolves its signals to dense bus indices once, so each
// sample is a slice walk with no map lookups. Its columns live in one
// pooled buffer sized for the whole horizon; Finish moves the samples
// into an exact-length allocation and hands the buffer to the next
// recorder, so a retained trace holds only what was recorded.
type Recorder struct {
	bus      *model.Bus
	trace    *Trace
	periodMs int64
	idxs     []int     // dense bus index per trace column
	buf      *[]Sample // pooled column storage; nil once finished
}

// recordBufs holds recording buffers between runs. Each is one flat
// array that a recorder carves into per-signal columns.
var recordBufs sync.Pool

// getRecordBuf returns a pooled buffer of at least n samples, or a new
// one if the pooled buffer is too small (the small one is dropped).
func getRecordBuf(n int) *[]Sample {
	if b, _ := recordBufs.Get().(*[]Sample); b != nil && cap(*b) >= n {
		return b
	}
	b := make([]Sample, n)
	return &b
}

// NewRecorder records the given signals from the bus every periodMs of
// scheduler time, with column capacity for horizonMs of samples.
func NewRecorder(bus *model.Bus, signals []model.SignalID, periodMs, horizonMs int64) *Recorder {
	if periodMs <= 0 {
		panic("trace: periodMs must be positive")
	}
	hint := int(horizonMs/periodMs) + 1
	r := &Recorder{
		bus:      bus,
		trace:    newTrace(signals),
		periodMs: periodMs,
		buf:      getRecordBuf(len(signals) * hint),
	}
	// Each column is capped at its share of the buffer: one that outgrows
	// the horizon moves to its own storage instead of overrunning the next.
	for i := range r.trace.cols {
		r.trace.cols[i] = (*r.buf)[i*hint : i*hint : (i+1)*hint]
	}
	sys := bus.System()
	for _, s := range signals {
		i, ok := sys.SignalIndex(s)
		if !ok {
			panic(fmt.Sprintf("trace: unknown signal %q", s))
		}
		r.idxs = append(r.idxs, i)
	}
	return r
}

// Hook is the scheduler hook: it samples whenever nowMs falls on the
// recording period.
func (r *Recorder) Hook(nowMs int64) {
	if nowMs%r.periodMs != 0 {
		return
	}
	t := r.trace
	for i, idx := range r.idxs {
		t.cols[i] = append(t.cols[i], Peek(r.bus, idx))
	}
	t.n++
}

// Trace returns the recorded trace. It is live: samples recorded after
// the call, and the move made by Finish, show through it.
func (r *Recorder) Trace() *Trace { return r.trace }

// Finish ends the recording and returns its trace. The samples move into
// one allocation of exactly Len() samples per column, shared by all
// columns, and the recording buffer goes back to the pool for the next
// recorder. Call it once, after the run; a recorder that is never
// finished keeps its buffer and stays valid.
func (r *Recorder) Finish() *Trace {
	t := r.trace
	if r.buf == nil {
		return t
	}
	n := t.n
	exact := make([]Sample, len(t.cols)*n)
	for i, col := range t.cols {
		dst := exact[i*n : (i+1)*n : (i+1)*n]
		copy(dst, col)
		t.cols[i] = dst
	}
	recordBufs.Put(r.buf)
	r.buf = nil
	return t
}
