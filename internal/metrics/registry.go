// Package metrics is the observability substrate of the simulator: a
// central registry of named counters, gauges and histograms that every
// stats-bearing component (cache banks, DRAM channels, the interconnect,
// the coherence directory, core timing models, MSA profilers, the epoch
// controller) registers into, plus the epoch-aligned time-series and
// partition-event records the simulator samples, and the versioned
// machine-readable run report that exports all of it as stable JSON.
//
// The registry is deliberately small: metric values are either owned by the
// registry (Counter, Gauge, Histogram — safe for concurrent use, so the
// opt-in debug HTTP endpoint may read them while a simulation runs) or
// lazily computed (RegisterFunc), which lets components expose their
// existing Stats() structs without duplicating every increment. Snapshot
// and Each iterate names in sorted order, so exports are deterministic —
// the property every golden-report test in this repository leans on.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Reset zeroes the counter (measurement-window bookkeeping).
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is a settable float64 metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram: counts[i] is the number
// of observations <= bounds[i]; the final implicit bucket counts the
// overflow. It also tracks the observation count and sum, so mean values
// can be recovered from a snapshot.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram over the given (strictly increasing)
// upper bounds.
func NewHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("metrics: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("metrics: histogram bounds not increasing at %d (%g after %g)",
				i, bounds[i], bounds[i-1])
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)),
	}, nil
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(h.counts) {
		h.counts[lo].Add(1)
	}
	h.total.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Reset zeroes the histogram.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.total.Store(0)
	h.sum.Store(0)
}

// Buckets returns the bounds and the cumulative count at each bound.
func (h *Histogram) Buckets() (bounds []float64, cumulative []uint64) {
	bounds = append([]float64(nil), h.bounds...)
	cumulative = make([]uint64, len(h.bounds))
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		cumulative[i] = run
	}
	return bounds, cumulative
}

// Registry is one namespace of metrics. All methods are safe for concurrent
// use; get-or-create accessors panic when a name is reused with a different
// metric kind (a programming error, like prometheus.MustRegister).
type Registry struct {
	mu      sync.Mutex
	entries map[string]any // *Counter | *Gauge | *Histogram | func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]any)}
}

func (r *Registry) getOrCreate(name string, mk func() any) any {
	if name == "" {
		panic("metrics: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		return e
	}
	e := mk()
	r.entries[name] = e
	return e
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	e := r.getOrCreate(name, func() any { return &Counter{} })
	c, ok := e.(*Counter)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered as %T", name, e))
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	e := r.getOrCreate(name, func() any { return &Gauge{} })
	g, ok := e.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered as %T", name, e))
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	e := r.getOrCreate(name, func() any {
		h, err := NewHistogram(bounds)
		if err != nil {
			panic(err)
		}
		return h
	})
	h, ok := e.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered as %T", name, e))
	}
	return h
}

// RegisterFunc registers a lazily evaluated gauge: fn runs at snapshot
// time. This is how components export their existing Stats() structs
// without double-counting machinery. Re-registering a name replaces the
// previous function (a rebuilt component re-binds its closure).
func (r *Registry) RegisterFunc(name string, fn func() float64) {
	if name == "" {
		panic("metrics: empty metric name")
	}
	if fn == nil {
		panic("metrics: nil metric func")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if _, isFn := e.(func() float64); !isFn {
			panic(fmt.Sprintf("metrics: %q already registered as %T", name, e))
		}
	}
	r.entries[name] = fn
}

// formatBound renders a bucket bound for a flattened snapshot key.
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// Snapshot evaluates every metric into a flat name->value map. Histograms
// are flattened into cumulative "<name>.le.<bound>" entries plus
// "<name>.count" and "<name>.sum". The map is freshly allocated; callers
// may keep it.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	entries := make(map[string]any, len(r.entries))
	for n, e := range r.entries {
		entries[n] = e
	}
	r.mu.Unlock()

	out := make(map[string]float64, len(entries))
	for name, e := range entries {
		switch m := e.(type) {
		case *Counter:
			out[name] = float64(m.Value())
		case *Gauge:
			out[name] = m.Value()
		case func() float64:
			out[name] = m()
		case *Histogram:
			bounds, cum := m.Buckets()
			for i, b := range bounds {
				out[name+".le."+formatBound(b)] = float64(cum[i])
			}
			out[name+".count"] = float64(m.Count())
			out[name+".sum"] = m.Sum()
		}
	}
	return out
}

// Each calls fn for every snapshot entry in sorted name order — the
// deterministic iteration exports are built on.
func (r *Registry) Each(fn func(name string, value float64)) {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fn(n, snap[n])
	}
}
