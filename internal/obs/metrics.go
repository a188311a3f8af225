// Package obs is the repo's zero-dependency observability layer: a
// lock-cheap metrics registry (counters, gauges, fixed-bucket
// histograms, labeled families, pull-style gauge funcs) with
// snapshot/reset semantics and a JSONL exporter, plus a
// sim-time event tracer (a bounded flight recorder or streaming JSONL)
// and a run log format (manifest + events + summary) that makes any traced run
// replayable and diffable.
//
// Everything here uses only the standard library, so every other
// package in the repo may import obs without cycles. Hot paths are
// designed so the disabled state costs one nil check and zero
// allocations per event (see Emit and the obs benchmarks).
package obs

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically updated float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores x.
func (g *Gauge) Set(x float64) { g.bits.Store(math.Float64bits(x)) }

// Add atomically adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram with atomic bucket counts.
// Bounds are the inclusive upper edges of each bucket; a final
// implicit +Inf bucket catches everything above the last bound.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1
	sum    Gauge
	n      atomic.Int64
}

// NewHistogram returns a histogram with the given sorted upper bounds.
// An empty bounds slice yields a single +Inf bucket (count + sum only).
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// expBuckets is the number of bounds ExpBuckets returns.
const expBuckets = 16

// ExpBuckets returns 16 doubling bounds: start, start*2, ...
func ExpBuckets(start float64) []float64 {
	out := make([]float64, expBuckets)
	v := start
	for i := range out {
		out[i] = v
		v *= 2
	}
	return out
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	if math.IsNaN(x) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, x) // first bound >= x
	h.counts[i].Add(1)
	h.sum.Add(x)
	h.n.Add(1)
}

// Count returns the total number of samples observed.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of observed samples.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Snapshot returns the bucket state: Bounds[i] is the inclusive upper
// edge of Counts[i]; Counts[len(Bounds)] is the overflow bucket.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.n.Load(),
		Sum:    h.sum.Value(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Point is one exported metric sample.
type Point struct {
	// Name is the metric name, e.g. "sim.link.sent_packets".
	Name string `json:"name"`
	// Label is the rendered label pair list, e.g. `link=bottleneck`
	// (empty for unlabeled metrics).
	Label string `json:"label,omitempty"`
	// Kind is "counter", "gauge", "func", or "histogram".
	Kind string `json:"kind"`
	// Value holds the scalar value (counter/gauge/func).
	Value float64 `json:"value"`
	// Hist holds bucket detail for histograms.
	Hist *HistogramSnapshot `json:"hist,omitempty"`
}

type metricKey struct{ name, label string }

// Registry is a set of named metrics. The zero value is not usable;
// call NewRegistry. Metric lookup takes a short mutex; returned
// handles (Counter, Gauge, Histogram) are lock-free atomics, so hot
// paths should hold on to the handle rather than re-look it up.
type Registry struct {
	mu       sync.Mutex
	counters map[metricKey]*Counter
	gauges   map[metricKey]*Gauge
	hists    map[metricKey]*Histogram
	funcs    map[metricKey]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[metricKey]*Counter),
		gauges:   make(map[metricKey]*Gauge),
		hists:    make(map[metricKey]*Histogram),
		funcs:    make(map[metricKey]func() float64),
	}
}

// Counter returns (creating if needed) the named counter. Counters are
// unlabeled.
func (r *Registry) Counter(name string) *Counter {
	k := metricKey{name: name}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge { return r.GaugeL(name, "") }

// GaugeL returns the named gauge with a rendered label.
func (r *Registry) GaugeL(name, label string) *Gauge {
	k := metricKey{name, label}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. Bounds
// apply only on creation; a later call with different bounds returns
// the existing histogram.
func (r *Registry) Histogram(name, label string, bounds []float64) *Histogram {
	k := metricKey{name, label}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[k]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[k] = h
	}
	return h
}

// RegisterFunc installs a pull-style gauge: fn is evaluated at each
// Snapshot. Re-registering a (name, label) pair replaces the previous
// func (scenario constructors may rebuild the same topology).
func (r *Registry) RegisterFunc(name, label string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[metricKey{name, label}] = fn
}

// GaugeFamily is a labeled family of gauges.
type GaugeFamily struct {
	r        *Registry
	name     string
	labelKey string
}

// GaugeFamily returns a labeled gauge family handle.
func (r *Registry) GaugeFamily(name, labelKey string) GaugeFamily {
	return GaugeFamily{r: r, name: name, labelKey: labelKey}
}

// With returns the family member for the given label value.
func (f GaugeFamily) With(value string) *Gauge {
	return f.r.GaugeL(f.name, f.labelKey+"="+value)
}

// Snapshot returns every metric as a Point, sorted by (name, label) so
// output is diffable across runs.
func (r *Registry) Snapshot() []Point {
	r.mu.Lock()
	pts := make([]Point, 0, len(r.counters)+len(r.gauges)+len(r.hists)+len(r.funcs))
	for k, c := range r.counters {
		pts = append(pts, Point{Name: k.name, Label: k.label, Kind: "counter", Value: float64(c.Value())})
	}
	for k, g := range r.gauges {
		pts = append(pts, Point{Name: k.name, Label: k.label, Kind: "gauge", Value: g.Value()})
	}
	for k, h := range r.hists {
		s := h.Snapshot()
		pts = append(pts, Point{Name: k.name, Label: k.label, Kind: "histogram", Value: float64(s.Count), Hist: &s})
	}
	funcs := make([]struct {
		k  metricKey
		fn func() float64
	}, 0, len(r.funcs))
	for k, fn := range r.funcs {
		funcs = append(funcs, struct {
			k  metricKey
			fn func() float64
		}{k, fn})
	}
	r.mu.Unlock()
	// Evaluate funcs outside the registry lock: they may read other
	// locks (e.g. the probe server's session table).
	for _, f := range funcs {
		pts = append(pts, Point{Name: f.k.name, Label: f.k.label, Kind: "func", Value: f.fn()})
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Name != pts[j].Name {
			return pts[i].Name < pts[j].Name
		}
		return pts[i].Label < pts[j].Label
	})
	return pts
}

// WriteJSONL writes one JSON object per point.
func WriteJSONL(w io.Writer, pts []Point) error {
	enc := json.NewEncoder(w)
	for i := range pts {
		if err := enc.Encode(&pts[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteSnapshotFile writes the registry's snapshot to path as JSONL. It
// is the shared backend of the CLI tools' -metrics-out flag.
func (r *Registry) WriteSnapshotFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = WriteJSONL(f, r.Snapshot())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Visit calls fn for every metric scalar without allocating: counters,
// gauges, and pull funcs once each (field ""), histograms twice
// (field "count" and field "sum"). It is the sampling backend of the
// timeseries recorder, which runs at a fixed cadence — Snapshot's
// sorted []Point allocation would defeat its zero-allocs-per-sample
// guarantee. fn runs under the registry lock, in no particular order,
// and must not call back into the registry; registered pull funcs are
// also evaluated under the lock, which is safe for the funcs this
// repo registers (they read atomics or take unrelated fine-grained
// locks) but means fn should stay brief.
func (r *Registry) Visit(fn func(name, label, field string, v float64)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, c := range r.counters {
		fn(k.name, k.label, "", float64(c.Value()))
	}
	for k, g := range r.gauges {
		fn(k.name, k.label, "", g.Value())
	}
	for k, h := range r.hists {
		fn(k.name, k.label, "count", float64(h.Count()))
		fn(k.name, k.label, "sum", h.Sum())
	}
	for k, f := range r.funcs {
		fn(k.name, k.label, "", f())
	}
}
