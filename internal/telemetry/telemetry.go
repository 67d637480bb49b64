// Package telemetry is the reproduction's dependency-free
// observability kernel: a metrics registry (atomic counters, gauges,
// fixed-bucket histograms with quantile estimation) plus a lightweight
// span/trace facility (per-job trace IDs, named phases, ring-buffered
// recent traces — see trace.go).
//
// The paper's whole argument is counter-driven — events per library
// call, ABTB hit and flush rates — and the service layer needs the
// same discipline: every hot-path subsystem (runner pool, result
// cache, panic isolation and admission control, the simulated
// ABTB/Bloom hardware itself) registers its counters here, and
// cmd/dlsimd exposes the registry in Prometheus text exposition
// format at GET /metrics (see expose.go) and recent job traces at
// GET /v1/traces/{id}.
//
// Design rules:
//
//   - Hot-path instruments are lock-free: Counter.Inc is one atomic
//     add, Histogram.Observe is a binary search plus three atomic
//     adds.  The registry mutex is only taken at registration and
//     exposition time, never per observation.
//   - Registration is idempotent: asking for an already-registered
//     name with the same kind returns the existing instrument, so
//     independent subsystems can share one registry without
//     coordinating init order.  Re-registering a name as a different
//     kind panics (a programming error, like a duplicate flag).
//   - Label cardinality is bounded by construction: label values come
//     from closed sets (workload names, config kinds, route patterns)
//     — never from request payloads or job IDs.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.  All methods are
// safe for concurrent use; Inc and Add are single atomic operations.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous integer level (queue depth, armed points,
// pool width).  All methods are single atomic operations.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metric kinds, for registration-conflict checks and exposition TYPE
// lines.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// family is one named metric: its metadata plus every labelled child.
type family struct {
	name   string
	help   string
	kind   kind
	labels []string  // label names; empty for unlabelled metrics
	bounds []float64 // histogram bucket upper bounds

	fn func() float64 // non-nil for function gauges (uptime etc.)

	mu       sync.Mutex
	children map[string]any // label-value key -> *Counter/*Gauge/*Histogram
}

// child returns (creating if needed) the instrument for one
// label-value combination.
func (f *family) child(key string) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	var m any
	switch f.kind {
	case kindCounter:
		m = &Counter{}
	case kindGauge:
		m = &Gauge{}
	case kindHistogram:
		m = newHistogram(f.bounds)
	}
	f.children[key] = m
	return m
}

// labelKey encodes label values into a child-map key.  Values are
// joined with an unlikely separator; exposition re-splits them.
const labelSep = "\x1f"

func labelKey(values []string) string { return strings.Join(values, labelSep) }

// Registry holds a process's (or a Runner's) metric families.  The
// zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order, for stable exposition
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register returns the named family, creating it on first use and
// panicking on a kind or label-arity conflict.
func (r *Registry) register(name, help string, k kind, labels []string, bounds []float64, fn func() float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s/%d labels (was %s/%d)",
				name, k, len(labels), f.kind, len(f.labels)))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     k,
		labels:   append([]string(nil), labels...),
		bounds:   append([]float64(nil), bounds...),
		fn:       fn,
		children: make(map[string]any),
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter returns the named unlabelled counter, registering it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, nil, nil, nil).child("").(*Counter)
}

// Gauge returns the named unlabelled gauge, registering it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, nil, nil, nil).child("").(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed by fn at
// exposition time (e.g. uptime).  Re-registering the same name keeps
// the first function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, kindGauge, nil, nil, fn)
}

// CounterFunc registers a counter whose cumulative value is computed
// by fn at exposition time (e.g. a runtime total).  Re-registering the
// same name keeps the first function.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, kindCounter, nil, nil, fn)
}

// Histogram returns the named unlabelled histogram over the given
// ascending bucket upper bounds (an implicit +Inf bucket is appended),
// registering it on first use.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, help, kindHistogram, nil, bounds, nil).child("").(*Histogram)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the named labelled counter family, registering
// it on first use.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labels, nil, nil)}
}

// With returns the counter for one label-value combination.  values
// must match the family's label names positionally.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.f.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d", v.f.name, len(v.f.labels), len(values)))
	}
	return v.f.child(labelKey(values)).(*Counter)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the named labelled gauge family, registering it on
// first use.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, labels, nil, nil)}
}

// With returns the gauge for one label-value combination.
func (v *GaugeVec) With(values ...string) *Gauge {
	if len(values) != len(v.f.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d", v.f.name, len(v.f.labels), len(values)))
	}
	return v.f.child(labelKey(values)).(*Gauge)
}

// sortedFamilies snapshots the families in registration order and
// each family's children in sorted label order, for deterministic
// exposition.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.families[name])
	}
	return out
}

// sortedChildren returns the family's child keys in lexical order.
func (f *family) sortedChildren() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
