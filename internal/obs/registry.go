package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric label pair. Series within a family are keyed by
// their rendered label set, sorted by key, so label order at the call
// site never creates duplicate series.
type Label struct{ Key, Value string }

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotone cumulative count. All methods are nil-safe
// no-ops, which is what makes the disabled telemetry path free.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters are monotone).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DurationBuckets are the default histogram bounds for wall-clock
// observations, in seconds: 1 ms to ~4 min on a doubling scale. Fixed
// bounds keep Observe allocation-free and make parent/worker histogram
// merging exact (bucket counts add).
var DurationBuckets = []float64{
	0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128,
	0.256, 0.512, 1.024, 2.048, 4.096, 8.192, 16.384, 32.768,
	65.536, 131.072, 262.144,
}

// Histogram counts observations into fixed buckets. bounds[i] is the
// inclusive upper edge of bucket i; one overflow bucket catches the
// rest. Observe is lock-free (atomic adds only).
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last = +Inf bucket
	sum    atomicFloat
	count  atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.add(v)
	h.count.Add(1)
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h != nil {
		h.Observe(time.Since(start).Seconds())
	}
}

// Counts copies the per-bucket counts (len(bounds)+1 entries).
func (h *Histogram) Counts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 < q < 1) from the bucket counts,
// interpolating linearly inside the containing bucket. Samples in the
// overflow bucket are attributed to the top bound. It returns 0 when
// the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return quantileFromCounts(h.bounds, h.Counts(), q)
}

// QuantileFromCounts estimates the q-quantile of a bucket-count vector
// (len(bounds)+1 entries, last = overflow) without a live Histogram —
// the engine uses it on snapshot deltas to report per-campaign shard
// latency percentiles.
func QuantileFromCounts(bounds []float64, counts []int64, q float64) float64 {
	return quantileFromCounts(bounds, counts, q)
}

// quantileFromCounts is the bucket-walk shared by live histograms and
// snapshot deltas.
func quantileFromCounts(bounds []float64, counts []int64, q float64) float64 {
	if len(bounds) == 0 {
		return 0
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(bounds) { // overflow bucket
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(prev)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return bounds[len(bounds)-1]
}

// atomicFloat is a float64 accumulated with CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// series kinds.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one metric name: its kind, histogram bounds, and every
// labeled series registered (or merged) under it.
type family struct {
	name   string
	kind   string
	bounds []float64
	series map[string]any // label-render -> *Counter/*Gauge/*Histogram
	order  []string       // label renders, registration order
}

// Registry holds the process's metric families. Lookup methods are
// nil-safe and return nil instruments, so code written against a
// possibly-absent registry needs no branches beyond the instrument's
// own nil checks. Instrument resolution takes the registry lock; hot
// paths resolve once and keep the pointer.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels renders a sorted label set: `{k1="v1",k2="v2"}` or "".
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns (creating if needed) the series of one family.
func (r *Registry) lookup(name, kind string, bounds []float64, labelRender string) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kind, bounds: bounds, series: make(map[string]any)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", name, f.kind, kind))
	}
	s, ok := f.series[labelRender]
	if !ok {
		switch kind {
		case kindCounter:
			s = &Counter{}
		case kindGauge:
			s = &Gauge{}
		case kindHistogram:
			h := &Histogram{bounds: f.bounds}
			h.counts = make([]atomic.Int64, len(f.bounds)+1)
			s = h
		}
		f.series[labelRender] = s
		f.order = append(f.order, labelRender)
	}
	return s
}

// Counter returns the counter series for name and labels, creating it
// on first use. Nil-safe: a nil registry returns a nil counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindCounter, nil, renderLabels(labels)).(*Counter)
}

// Gauge returns the gauge series for name and labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindGauge, nil, renderLabels(labels)).(*Gauge)
}

// Histogram returns the histogram series for name and labels with the
// given bucket bounds (the family's first registration wins the
// bounds; nil selects DurationBuckets).
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DurationBuckets
	}
	return r.lookup(name, kindHistogram, bounds, renderLabels(labels)).(*Histogram)
}

// Series is one metric series' state, used for snapshots, wire
// forwarding (worker -> parent metric frames) and merging. Name carries
// the rendered labels; histogram state travels as bucket counts plus
// sum so merges are exact.
type Series struct {
	Name   string    `json:"name"` // family name + rendered labels
	Kind   string    `json:"kind"`
	Value  int64     `json:"value,omitempty"`  // counter/gauge
	Sum    float64   `json:"sum,omitempty"`    // histogram
	Count  int64     `json:"count,omitempty"`  // histogram
	Bounds []float64 `json:"bounds,omitempty"` // histogram
	Counts []int64   `json:"counts,omitempty"` // histogram, len(Bounds)+1
}

// Snapshot captures every series' current state, in registration order.
func (r *Registry) Snapshot() []Series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Series
	for _, name := range r.order {
		f := r.families[name]
		for _, lr := range f.order {
			s := Series{Name: name + lr, Kind: f.kind}
			switch v := f.series[lr].(type) {
			case *Counter:
				s.Value = v.Value()
			case *Gauge:
				s.Value = v.Value()
			case *Histogram:
				s.Sum = v.sum.load()
				s.Count = v.count.Load()
				s.Bounds = f.bounds
				s.Counts = v.Counts()
			}
			out = append(out, s)
		}
	}
	return out
}

// DeltaTracker turns successive snapshots of one registry into
// forwardable deltas. Worker processes keep one per connection and ship
// only what changed since the last frame; gauges are skipped (summing
// instantaneous values across processes is meaningless).
type DeltaTracker struct {
	prev map[string]Series
}

// Delta returns the counter/histogram movement since the previous call
// and advances the tracker.
func (d *DeltaTracker) Delta(r *Registry) []Series {
	snap := r.Snapshot()
	if d.prev == nil {
		d.prev = make(map[string]Series, len(snap))
	}
	var out []Series
	for _, s := range snap {
		prev := d.prev[s.Name]
		switch s.Kind {
		case kindCounter:
			if dv := s.Value - prev.Value; dv > 0 {
				out = append(out, Series{Name: s.Name, Kind: s.Kind, Value: dv})
			}
		case kindHistogram:
			if s.Count > prev.Count {
				ds := Series{
					Name: s.Name, Kind: s.Kind,
					Sum:    s.Sum - prev.Sum,
					Count:  s.Count - prev.Count,
					Bounds: s.Bounds,
					Counts: make([]int64, len(s.Counts)),
				}
				for i := range s.Counts {
					ds.Counts[i] = s.Counts[i]
					if i < len(prev.Counts) {
						ds.Counts[i] -= prev.Counts[i]
					}
				}
				out = append(out, ds)
			}
		}
		d.prev[s.Name] = s
	}
	return out
}

// splitSeriesName separates a rendered series name into family name and
// label render.
func splitSeriesName(name string) (fam, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// Merge folds counter and histogram deltas — typically forwarded from a
// worker process — into this registry, creating series as needed.
// Gauges and malformed entries are ignored.
func (r *Registry) Merge(deltas []Series) {
	if r == nil {
		return
	}
	for _, s := range deltas {
		fam, labels := splitSeriesName(s.Name)
		if fam == "" {
			continue
		}
		switch s.Kind {
		case kindCounter:
			r.lookup(fam, kindCounter, nil, labels).(*Counter).Add(s.Value)
		case kindHistogram:
			bounds := s.Bounds
			if bounds == nil {
				bounds = DurationBuckets
			}
			h, ok := r.lookup(fam, kindHistogram, bounds, labels).(*Histogram)
			if !ok || len(s.Counts) != len(h.counts) {
				continue
			}
			for i, c := range s.Counts {
				if c > 0 {
					h.counts[i].Add(c)
				}
			}
			h.sum.add(s.Sum)
			h.count.Add(s.Count)
		}
	}
}
