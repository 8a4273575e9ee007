package trace

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/model"
)

func mkTrace(t *testing.T, vals map[model.SignalID][]Sample) *Trace {
	t.Helper()
	var sigs []model.SignalID
	n := -1
	for s, col := range vals {
		sigs = append(sigs, s)
		if n == -1 {
			n = len(col)
		} else if len(col) != n {
			t.Fatal("uneven columns in fixture")
		}
	}
	// Deterministic order.
	for i := 0; i < len(sigs); i++ {
		for j := i + 1; j < len(sigs); j++ {
			if sigs[j] < sigs[i] {
				sigs[i], sigs[j] = sigs[j], sigs[i]
			}
		}
	}
	tr := NewTrace(sigs, n)
	for k := 0; k < n; k++ {
		tr.Append(func(s model.SignalID) Sample { return vals[s][k] })
	}
	return tr
}

func TestAppendAndValue(t *testing.T) {
	tr := mkTrace(t, map[model.SignalID][]Sample{
		"a": {1, 2, 3},
		"b": {10, 20, 30},
	})
	if got := tr.Len(); got != 3 {
		t.Errorf("Len() = %d, want 3", got)
	}
	if got := tr.Value("a", 1); got != 2 {
		t.Errorf("Value(a,1) = %d, want 2", got)
	}
	if got := tr.Value("b", 2); got != 30 {
		t.Errorf("Value(b,2) = %d, want 30", got)
	}
	col := tr.Column("a")
	col[0] = 99
	if got := tr.Value("a", 0); got != 1 {
		t.Error("Column() must return a copy")
	}
}

func TestDuplicateSignalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTrace with duplicate signals did not panic")
		}
	}()
	NewTrace([]model.SignalID{"x", "x"}, 1)
}

func TestUnknownSignalPanics(t *testing.T) {
	tr := NewTrace([]model.SignalID{"a"}, 1)
	defer func() {
		if recover() == nil {
			t.Error("Value of unknown signal did not panic")
		}
	}()
	tr.Value("ghost", 0)
}

func TestFirstDifference(t *testing.T) {
	golden := mkTrace(t, map[model.SignalID][]Sample{
		"s": {5, 5, 5, 5, 5},
	})
	tests := []struct {
		name string
		inj  []Sample
		want int
	}{
		{"identical", []Sample{5, 5, 5, 5, 5}, NoDifference},
		{"differs at 0", []Sample{4, 5, 5, 5, 5}, 0},
		{"differs at 3", []Sample{5, 5, 5, 9, 5}, 3},
		{"differs at last", []Sample{5, 5, 5, 5, 6}, 4},
		{"shorter identical prefix", []Sample{5, 5, 5}, NoDifference},
		{"shorter with diff", []Sample{5, 7}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			inj := mkTrace(t, map[model.SignalID][]Sample{"s": tt.inj})
			if got := FirstDifference(golden, inj, "s"); got != tt.want {
				t.Errorf("FirstDifference = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestDeviations(t *testing.T) {
	golden := mkTrace(t, map[model.SignalID][]Sample{
		"a": {1, 2, 3},
		"b": {1, 2, 3},
		"c": {1, 2, 3},
	})
	inj := mkTrace(t, map[model.SignalID][]Sample{
		"a": {1, 2, 3},
		"b": {1, 9, 3},
	})
	dev := Deviations(golden, inj)
	if got, ok := dev["a"]; !ok || got != NoDifference {
		t.Errorf("dev[a] = %d,%v want NoDifference", got, ok)
	}
	if got := dev["b"]; got != 1 {
		t.Errorf("dev[b] = %d, want 1", got)
	}
	if _, ok := dev["c"]; ok {
		t.Error("dev[c] present although c is not in the injected trace")
	}
}

// Property: FirstDifference returns the minimal index of disagreement.
func TestQuickFirstDifferenceMinimality(t *testing.T) {
	f := func(base []uint8, flipAt uint16) bool {
		if len(base) == 0 {
			return true
		}
		idx := int(flipAt) % len(base)
		g := NewTrace([]model.SignalID{"s"}, len(base))
		i := NewTrace([]model.SignalID{"s"}, len(base))
		for k, b := range base {
			v := Sample(b)
			g.Append(func(model.SignalID) Sample { return v })
			iv := v
			if k == idx {
				iv = v + 1
			}
			i.Append(func(model.SignalID) Sample { return iv })
		}
		return FirstDifference(g, i, "s") == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecorderSamplesOnPeriod(t *testing.T) {
	sys, err := model.NewBuilder("rec").
		AddSignal("in", model.Uint(16), model.AsSystemInput()).
		AddSignal("out", model.Uint(16), model.AsSystemOutput(1)).
		AddModule("M", model.In("in"), model.Out("out")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	bus := model.NewBus(sys)
	rec := NewRecorder(bus, []model.SignalID{"in"}, 10, 100)
	for now := int64(0); now < 35; now++ {
		bus.Poke("in", model.Word(now))
		rec.Hook(now)
	}
	tr := rec.Trace()
	if got := tr.Len(); got != 4 { // t = 0, 10, 20, 30
		t.Fatalf("Len() = %d, want 4", got)
	}
	want := []Sample{0, 10, 20, 30}
	for i, w := range want {
		if got := tr.Value("in", i); got != w {
			t.Errorf("sample %d = %d, want %d", i, got, w)
		}
	}
}

func TestRecorderRejectsBadPeriod(t *testing.T) {
	sys, err := model.NewBuilder("rec").
		AddSignal("in", model.Uint(16), model.AsSystemInput()).
		AddSignal("out", model.Uint(16), model.AsSystemOutput(1)).
		AddModule("M", model.In("in"), model.Out("out")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewRecorder(period 0) did not panic")
		}
	}()
	NewRecorder(model.NewBus(sys), []model.SignalID{"in"}, 0, 10)
}

// roundTrip lists, per signal of the round-trip fixture, its type and
// the values written to it in turn: the extremes of each width and
// signedness the model allows, negative values, and pairs that differ
// only above bit 15. Neighbours in each list differ, cyclically.
var roundTrip = []struct {
	sig  model.SignalID
	typ  model.Type
	vals []model.Word
}{
	{"u1", model.Uint(1), []model.Word{0, 1}},
	{"u16", model.Uint(16), []model.Word{0, 0xFFFF, 0x8000, 1, 0x7FFF}},
	{"u32", model.Uint(32), []model.Word{0xFFFFFFFF, 0, 0x10000, 0x20000, 0x80000000, 0x7FFFFFFF}},
	{"i8", model.Int(8), []model.Word{-128, 127, -1, 0, 1, -2}},
	{"i16", model.Int(16), []model.Word{-32768, 32767, -1, 0, -256}},
	{"i32", model.Int(32), []model.Word{math.MinInt32, math.MaxInt32, -1, 0x10000, -0x10000, 0}},
}

// TestSampleRoundTrip records every width and signedness at their
// extreme values: each raw sample is the word the bus stores and decodes
// to the value PeekIdx returned, and FirstDifference finds the first
// sample at which the values PeekIdx returned differ.
func TestSampleRoundTrip(t *testing.T) {
	b := model.NewBuilder("widths")
	var sigs []model.SignalID
	for _, rt := range roundTrip {
		b.AddSignal(rt.sig, rt.typ, model.AsSystemInput())
		sigs = append(sigs, rt.sig)
	}
	sys, err := b.AddSignal("out", model.Uint(1), model.AsSystemOutput(1)).
		AddModule("M", model.In(sigs...), model.Out("out")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	// run records n samples, writing vals[k%len] to each signal at sample
	// k, except at sample skew[sig], which writes the next value instead.
	// It returns the trace and the values PeekIdx read per signal.
	run := func(skew map[model.SignalID]int) (*Trace, map[model.SignalID][]model.Word) {
		bus := model.NewBus(sys)
		rec := NewRecorder(bus, sigs, 1, n)
		peeked := make(map[model.SignalID][]model.Word)
		for k := 0; k < n; k++ {
			for _, rt := range roundTrip {
				j := k
				if at, ok := skew[rt.sig]; ok && k == at {
					j++
				}
				v := rt.vals[j%len(rt.vals)]
				bus.Poke(rt.sig, v)
				i, _ := sys.SignalIndex(rt.sig)
				got := bus.PeekIdx(i)
				if got != v {
					t.Fatalf("%s: wrote %d, PeekIdx read %d", rt.sig, v, got)
				}
				if got := bus.PeekRawIdx(i); got != bus.PeekRaw(rt.sig) {
					t.Fatalf("%s: PeekRawIdx %#x, PeekRaw %#x", rt.sig, got, bus.PeekRaw(rt.sig))
				}
				peeked[rt.sig] = append(peeked[rt.sig], got)
			}
			rec.Hook(int64(k))
			for _, rt := range roundTrip {
				col := rec.Trace().Samples(rt.sig)
				if raw := bus.PeekRaw(rt.sig); model.Word(col[k]) != raw {
					t.Fatalf("%s sample %d = %#x, want the bus's raw word %#x", rt.sig, k, col[k], raw)
				}
			}
		}
		return rec.Finish(), peeked
	}
	decode := func(typ model.Type, col []Sample) []model.Word {
		out := make([]model.Word, len(col))
		for k, s := range col {
			out[k] = typ.FromRaw(model.Word(s))
		}
		return out
	}

	checkDecoded := func(tr *Trace, peeked map[model.SignalID][]model.Word) {
		t.Helper()
		for _, rt := range roundTrip {
			if got := decode(rt.typ, tr.Samples(rt.sig)); !slices.Equal(got, peeked[rt.sig]) {
				t.Fatalf("%s: decoded samples %v, PeekIdx read %v", rt.sig, got, peeked[rt.sig])
			}
		}
	}

	golden, want := run(nil)
	checkDecoded(golden, want)
	for _, at := range []int{0, 1, 7, n - 1} {
		skew := make(map[model.SignalID]int)
		for i, rt := range roundTrip {
			skew[rt.sig] = (at + i) % n
		}
		injected, peeked := run(skew)
		checkDecoded(injected, peeked)
		for _, rt := range roundTrip {
			wantFD := NoDifference
			for k, v := range want[rt.sig] {
				if v != peeked[rt.sig][k] {
					wantFD = k
					break
				}
			}
			if wantFD != skew[rt.sig] {
				t.Fatalf("%s: the value written at sample %d equals the golden one", rt.sig, skew[rt.sig])
			}
			if got := FirstDifference(golden, injected, rt.sig); got != wantFD {
				t.Errorf("%s: FirstDifference = %d, the values PeekIdx read first differ at %d", rt.sig, got, wantFD)
			}
		}
	}
}

// recFixture is a two-signal bus for recorder tests.
func recFixture(t *testing.T) *model.Bus {
	t.Helper()
	sys, err := model.NewBuilder("rec").
		AddSignal("a", model.Uint(16), model.AsSystemInput()).
		AddSignal("b", model.Uint(16), model.AsSystemOutput(1)).
		AddModule("M", model.In("a"), model.Out("b")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return model.NewBus(sys)
}

// record drives rec for n slots of period 1, sampling a = base+k and
// b = base+2k at slot k.
func record(bus *model.Bus, rec *Recorder, n int, base model.Word) {
	for k := 0; k < n; k++ {
		bus.Poke("a", base+model.Word(k))
		bus.Poke("b", base+2*model.Word(k))
		rec.Hook(int64(k))
	}
}

// checkSamples asserts tr holds exactly the n samples record wrote from
// base.
func checkSamples(t *testing.T, tr *Trace, n int, base model.Word) {
	t.Helper()
	if tr.Len() != n {
		t.Fatalf("Len() = %d, want %d", tr.Len(), n)
	}
	for _, s := range []struct {
		sig  model.SignalID
		step model.Word
	}{{"a", 1}, {"b", 2}} {
		col := tr.Samples(s.sig)
		if len(col) != n {
			t.Fatalf("%s: %d samples, want %d", s.sig, len(col), n)
		}
		for k, v := range col {
			if want := base + s.step*model.Word(k); model.Word(v) != want {
				t.Fatalf("%s sample %d = %d, want %d", s.sig, k, v, want)
			}
		}
	}
}

// checkExact asserts every column of a finished trace is exactly Len()
// long and the columns lie back to back in one allocation.
func checkExact(t *testing.T, tr *Trace) {
	t.Helper()
	n := tr.Len()
	base := unsafe.Pointer(unsafe.SliceData(tr.cols[0]))
	for i, col := range tr.cols {
		if len(col) != n || cap(col) != n {
			t.Fatalf("column %d: len %d cap %d, want both %d", i, len(col), cap(col), n)
		}
		if unsafe.Pointer(unsafe.SliceData(col)) != unsafe.Add(base, i*n*int(unsafe.Sizeof(col[0]))) {
			t.Fatalf("column %d is not at offset %d of the trace's allocation", i, i*n)
		}
	}
}

func TestRecorderReusedBufferHasNoStaleTail(t *testing.T) {
	bus := recFixture(t)
	reused := false
	// The pool may drop a buffer (it always may under the race
	// detector), so try until one is handed on.
	for attempt := 0; attempt < 50 && !reused; attempt++ {
		long := NewRecorder(bus, []model.SignalID{"a", "b"}, 1, 100)
		buf := long.buf
		record(bus, long, 90, 1000)
		checkSamples(t, long.Finish(), 90, 1000)

		short := NewRecorder(bus, []model.SignalID{"a", "b"}, 1, 100)
		reused = short.buf == buf
		record(bus, short, 7, 3)
		checkSamples(t, short.Trace(), 7, 3)
		tr := short.Finish()
		checkSamples(t, tr, 7, 3)
		checkExact(t, tr)
	}
	if !reused {
		t.Fatal("no recorder reused a finished recorder's buffer")
	}
}

func TestRecorderTraceTakenBeforeRunIsLive(t *testing.T) {
	bus := recFixture(t)
	rec := NewRecorder(bus, []model.SignalID{"a", "b"}, 1, 20)
	tr := rec.Trace()
	record(bus, rec, 15, 40)
	checkSamples(t, tr, 15, 40)
	if got := rec.Finish(); got != tr {
		t.Fatal("Finish returned a different trace than Trace")
	}
	checkSamples(t, tr, 15, 40)
	checkExact(t, tr)
}

func TestRecorderNeverFinishedStaysValid(t *testing.T) {
	bus := recFixture(t)
	kept := NewRecorder(bus, []model.SignalID{"a", "b"}, 1, 50)
	record(bus, kept, 30, 500)
	for i := 0; i < 5; i++ {
		other := NewRecorder(bus, []model.SignalID{"a", "b"}, 1, 50)
		record(bus, other, 50, 9000)
		other.Finish()
	}
	checkSamples(t, kept.Trace(), 30, 500)
}

func TestRecorderOutgrowsHorizon(t *testing.T) {
	bus := recFixture(t)
	rec := NewRecorder(bus, []model.SignalID{"a", "b"}, 1, 9)
	record(bus, rec, 25, 7)
	checkSamples(t, rec.Trace(), 25, 7)
	tr := rec.Finish()
	checkSamples(t, tr, 25, 7)
	checkExact(t, tr)
}

// Recorders on several goroutines share the pool; each finished trace
// must hold its own run's samples.
func TestRecorderConcurrentRecordings(t *testing.T) {
	const goroutines, rounds = 4, 20
	traces := make([][]*Trace, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		bus := recFixture(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				rec := NewRecorder(bus, []model.SignalID{"a", "b"}, 1, 64)
				record(bus, rec, 10+r, model.Word(1000*g+r))
				traces[g] = append(traces[g], rec.Finish())
			}
		}()
	}
	wg.Wait()
	for g, trs := range traces {
		for r, tr := range trs {
			checkSamples(t, tr, 10+r, model.Word(1000*g+r))
			checkExact(t, tr)
		}
	}
}

// NewTrace creates an empty trace over the given signals, pre-sizing each
// column for capacityHint samples.
func NewTrace(signals []model.SignalID, capacityHint int) *Trace {
	t := newTrace(signals)
	for i := range t.cols {
		t.cols[i] = make([]Sample, 0, capacityHint)
	}
	return t
}

// Append records one sample row; values are read through the provided
// getter.
func (t *Trace) Append(get func(model.SignalID) Sample) {
	for i, s := range t.signals {
		t.cols[i] = append(t.cols[i], get(s))
	}
	t.n++
}

// Column returns a copy of all samples of one signal.
func (t *Trace) Column(sig model.SignalID) []Sample {
	return append([]Sample(nil), t.column(sig)...)
}

// Value returns sample idx of a signal. It panics on unknown signals or
// out-of-range indices — both are harness bugs, not data conditions.
func (t *Trace) Value(sig model.SignalID, idx int) Sample {
	col := t.column(sig)
	if idx < 0 || idx >= len(col) {
		panic(fmt.Sprintf("trace: sample %d of %q out of range (%d samples)", idx, sig, len(col)))
	}
	return col[idx]
}
