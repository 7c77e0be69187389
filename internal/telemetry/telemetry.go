// Package telemetry is the measurement runtime's observability layer: a
// dependency-free registry of named counters, gauges and fixed-bucket
// histograms, plus a lightweight span API for timing pipeline stages.
//
// The hot path is lock-free: counters and gauges are single atomic adds,
// histogram observation is a binary search over immutable bucket bounds
// followed by two atomic adds and a CAS-loop sum update. Registration
// (GetOrCreate by name) takes a registry lock only on first use; every
// instrumented package caches its metric handles in package variables, so
// steady-state instrumentation never touches the registry map.
//
// Reading is snapshot-on-read: Registry.Snapshot copies every metric into
// plain values, so a scrape or an end-of-run report observes a consistent,
// immutable view while the pipeline keeps mutating the live metrics.
//
// The package deliberately never feeds back into measurement results:
// instrumented code records what happened but never branches on a metric
// value, so telemetry cannot perturb the deterministic pipeline output (the
// measure pinning test runs with telemetry enabled and stays byte-identical).
//
// Two consumers share the one Default registry:
//
//   - cmd/depserver -http serves it as Prometheus text ([Handler], /metrics),
//     expvar JSON and pprof;
//   - cmd/depscope -telemetry prints it as a sorted end-of-run table
//     ([Snapshot.WriteTable]).
//
// Library users read it with Default.Snapshot. The registry is cumulative
// across the process, so a snapshot is "as of now", not one run's delta.
//
// Metric names follow the Prometheus convention (snake_case, _total suffix
// for counters, _seconds suffix and base-unit seconds for histograms). Span
// names are dotted ("measure.dns"); the histogram a span feeds is the
// sanitized name plus "_seconds" ("measure_dns_seconds"). The full catalog
// is documented in docs/observability.md.
package telemetry

// Default is the process-wide registry used by the package-level helpers
// and by all instrumented packages (conc, measure, resolver, dnsserver,
// analysis). Tests that need isolation create their own via NewRegistry.
var Default = NewRegistry()

// Counter returns the named counter from the Default registry, creating it
// on first use.
func Counter(name, help string) *CounterMetric { return Default.Counter(name, help) }

// Gauge returns the named gauge from the Default registry, creating it on
// first use.
func Gauge(name, help string) *GaugeMetric { return Default.Gauge(name, help) }

// Histogram returns the named histogram from the Default registry, creating
// it on first use. A nil bounds slice means DefBuckets.
func Histogram(name, help string, bounds []float64) *HistogramMetric {
	return Default.Histogram(name, help, bounds)
}

// StartSpan begins a span on the Default registry. The returned span's End
// records its duration into the histogram named after the span (sanitized,
// "_seconds" suffix) and, when tracing is enabled, into the trace ring.
func StartSpan(name string) *Span { return Default.StartSpan(name) }
