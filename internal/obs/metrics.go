// Package obs is the service's observability plane: a dependency-free
// metrics library (atomic counters, gauges and histograms behind a
// registry with a Prometheus text-exposition /metrics handler), a bounded
// per-job lifecycle event trace, health/readiness probes with a pprof
// debug mux, and the shared log/slog setup every daemon routes through.
//
// The hot paths are single atomic operations: a Counter.Add is one
// atomic add, a Histogram.Observe is a bucket search plus three atomics,
// and label lookups are meant to be resolved once at wiring time (see
// CounterVec.With) so steady-state instrumentation never touches a map
// or a lock. Scrapes serialise under the registry lock, which is held
// only while formatting text.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (counters only go up; negative deltas are a caller bug and
// handled by the Gauge type instead).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution with a lock-free Observe:
// cumulative-at-scrape buckets, a CAS-accumulated float sum, and a count.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; +Inf bucket is implicit
	buckets []atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-added
	count   atomic.Uint64
}

// DefBuckets are the default latency buckets in seconds.
var DefBuckets = []float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// sort.SearchFloat64s returns the first bound >= v's insertion point;
	// bucket semantics are le (value <= bound).
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// metric family kinds.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one named metric and its labeled children.
type family struct {
	name   string
	help   string
	kind   string
	labels []string

	mu       sync.Mutex
	children map[string]any // joined label values -> *Counter/*Gauge/*Histogram
	order    []string       // child keys in first-use order
	vals     map[string][]string

	fn      func() float64            // GaugeFunc
	vecFn   func() map[string]float64 // GaugeVecFunc (single label)
	buckets []float64                 // histogram bounds
}

func (f *family) child(values []string, make func() any) any {
	key := joinLabelValues(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	m := make()
	f.children[key] = m
	f.order = append(f.order, key)
	f.vals[key] = append([]string(nil), values...)
	return m
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []*family
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// register returns the named family, creating it on first use. A name may
// be registered many times (wiring code runs once per connection or per
// subsystem), but always with the same kind and label names — a mismatch
// is a programming error and panics.
func (r *Registry) register(name, help, kind string, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
				name, kind, labels, f.kind, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %q re-registered with labels %v, was %v",
					name, labels, f.labels))
			}
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind, labels: labels,
		children: make(map[string]any),
		vals:     make(map[string][]string),
	}
	r.fams[name] = f
	r.order = append(r.order, f)
	return f
}

// Counter returns the unlabeled counter with the given name, registering
// it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil)
	return f.child(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family with labels; resolve children once with
// With and keep the returned *Counter for the hot path.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family with the given name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labels)}
}

// With returns the child counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			v.f.name, len(v.f.labels), len(values)))
	}
	return v.f.child(values, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil)
	return f.child(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family with the given name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, labels)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if len(values) != len(v.f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			v.f.name, len(v.f.labels), len(values)))
	}
	return v.f.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// the natural shape for state that already lives behind another lock
// (queue depth, jobs by state) where mirroring every transition into a
// stored gauge would be a second source of truth.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, nil)
	f.fn = fn
}

// GaugeVecFunc registers a single-label gauge family computed at scrape
// time: fn returns label value -> gauge value.
func (r *Registry) GaugeVecFunc(name, help, label string, fn func() map[string]float64) {
	f := r.register(name, help, kindGauge, []string{label})
	f.vecFn = fn
}

// ByteBuckets are the default size buckets in bytes: powers of four from
// 256 B to 64 MiB, wide enough for a scalar result body and a dense grid.
var ByteBuckets = []float64{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24, 1 << 26}

// Histogram returns the unlabeled histogram with the given name. buckets
// are upper bounds in increasing order (nil means DefBuckets); the +Inf
// bucket is implicit. Like kind and label mismatches, re-registering with
// different buckets is a programming error and panics — the existing
// child keeps its original bounds, so silently accepting new ones would
// leave registration intent and exposition disagreeing.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec is a histogram family partitioned by label values; every
// child shares the family's buckets.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family with the given name
// (see Histogram for the bucket rules).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.register(name, help, kindHistogram, labels)
	f.mu.Lock()
	if f.buckets == nil {
		f.buckets = append([]float64(nil), buckets...)
	} else if !equalBounds(f.buckets, buckets) {
		was := f.buckets
		f.mu.Unlock()
		panic(fmt.Sprintf("obs: histogram %q re-registered with buckets %v, was %v",
			name, buckets, was))
	}
	f.mu.Unlock()
	return &HistogramVec{f}
}

// With returns the child for the given label values, creating it on first
// use. Resolve children once at wiring time, not per observation.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			v.f.name, len(v.f.labels), len(values)))
	}
	return v.f.child(values, func() any {
		return &Histogram{
			bounds:  v.f.buckets,
			buckets: make([]atomic.Uint64, len(v.f.buckets)+1),
		}
	}).(*Histogram)
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// joinLabelValues builds the child cache key. Values are joined with an
// unlikely separator; correctness does not depend on it (collisions would
// merge two children, never corrupt memory).
func joinLabelValues(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	key := values[0]
	for _, v := range values[1:] {
		key += "\x1f" + v
	}
	return key
}
