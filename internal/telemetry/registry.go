package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default histogram bounds, in seconds: a latency ladder
// from 1µs to 10s tuned for the pipeline's range (in-process lookups are
// microseconds, full passes are hundreds of milliseconds). Values above the
// last bound land in the implicit +Inf bucket.
var DefBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry (or use the package-level Default).
type Registry struct {
	metrics sync.Map   // sanitized name -> metric (lock-free hot-path lookup)
	mu      sync.Mutex // serializes first-use registration

	traceOn  atomic.Bool
	traceMu  sync.Mutex
	trace    []SpanEvent // ring buffer, valid entries in [0, traceLen)
	traceLen int
	traceAt  int // next write position
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// metric is the common interface of the three metric kinds.
type metric interface {
	kind() string
}

// Sanitize maps an arbitrary name onto the Prometheus metric-name alphabet
// [a-zA-Z0-9_:]: every other rune becomes '_', and a leading digit gets a
// '_' prefix. Span names like "measure.dns" sanitize to "measure_dns".
func Sanitize(name string) string {
	ok := func(i int, r rune) bool {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			return true
		case r >= '0' && r <= '9':
			return i > 0
		}
		return false
	}
	clean := true
	for i, r := range name {
		if !ok(i, r) {
			clean = false
			break
		}
	}
	if clean && name != "" {
		return name
	}
	out := make([]rune, 0, len(name)+1)
	for i, r := range name {
		if ok(i, r) {
			out = append(out, r)
		} else if i == 0 && r >= '0' && r <= '9' {
			out = append(out, '_', r)
		} else {
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		out = []rune{'_'}
	}
	return string(out)
}

// register returns the metric stored under name, creating it with make on
// first use. A name registered as one kind and fetched as another is a
// programming error and panics.
func (r *Registry) register(name string, make func() metric) metric {
	name = Sanitize(name)
	if m, ok := r.metrics.Load(name); ok {
		return m.(metric)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics.Load(name); ok {
		return m.(metric)
	}
	m := make()
	r.metrics.Store(name, m)
	return m
}

// ---- Counter ----

// CounterMetric is a monotonically increasing atomic counter.
type CounterMetric struct {
	name, helpText string
	v              atomic.Int64
}

func (*CounterMetric) kind() string { return "counter" }

// Add increments the counter by n (n < 0 is a programming error and ignored).
func (c *CounterMetric) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *CounterMetric) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *CounterMetric) Value() int64 { return c.v.Load() }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *CounterMetric {
	m := r.register(name, func() metric {
		return &CounterMetric{name: Sanitize(name), helpText: help}
	})
	c, ok := m.(*CounterMetric)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as a %s, not a counter", name, m.kind()))
	}
	return c
}

// ---- Gauge ----

// GaugeMetric is an atomic instantaneous value (e.g. tasks in flight).
type GaugeMetric struct {
	name, helpText string
	v              atomic.Int64
}

func (*GaugeMetric) kind() string { return "gauge" }

// Set stores v.
func (g *GaugeMetric) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative deltas decrement).
func (g *GaugeMetric) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *GaugeMetric) Value() int64 { return g.v.Load() }

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *GaugeMetric {
	m := r.register(name, func() metric {
		return &GaugeMetric{name: Sanitize(name), helpText: help}
	})
	g, ok := m.(*GaugeMetric)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as a %s, not a gauge", name, m.kind()))
	}
	return g
}

// ---- Histogram ----

// HistogramMetric is a fixed-bucket histogram. Observation is lock-free:
// a binary search over the immutable bounds, two atomic increments, and a
// CAS loop folding the value into the running sum.
type HistogramMetric struct {
	name, helpText string
	bounds         []float64 // ascending upper bounds; +Inf implicit last
	counts         []atomic.Int64
	count          atomic.Int64
	sumBits        atomic.Uint64 // math.Float64bits of the running sum
}

func (*HistogramMetric) kind() string { return "histogram" }

// Observe records v. Bucket semantics follow Prometheus: v lands in the
// first bucket whose upper bound is >= v (bounds are inclusive), values
// beyond the last bound land in +Inf.
func (h *HistogramMetric) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds, the histogram base unit.
func (h *HistogramMetric) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Sum returns the sum of all observed values.
func (h *HistogramMetric) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Histogram returns the named histogram, creating it on first use. bounds
// are ascending upper bounds in the metric's base unit (seconds for
// durations); nil means DefBuckets. The bounds of an already-registered
// histogram win — they are fixed at first registration.
func (r *Registry) Histogram(name, help string, bounds []float64) *HistogramMetric {
	m := r.register(name, func() metric {
		if bounds == nil {
			bounds = DefBuckets
		}
		b := append([]float64(nil), bounds...)
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending at %v", name, b[i]))
			}
		}
		return &HistogramMetric{
			name:     Sanitize(name),
			helpText: help,
			bounds:   b,
			counts:   make([]atomic.Int64, len(b)+1),
		}
	})
	h, ok := m.(*HistogramMetric)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as a %s, not a histogram", name, m.kind()))
	}
	return h
}
