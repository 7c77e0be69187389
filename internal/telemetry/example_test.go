package telemetry_test

import (
	"fmt"
	"os"

	"depscope/internal/telemetry"
)

// Example shows the full lifecycle: register metrics in package variables
// (the hot path then never touches the registry map), record, and read a
// consistent snapshot. Production code uses the shared telemetry.Default
// registry; an isolated one keeps this example deterministic.
func Example() {
	reg := telemetry.NewRegistry()

	queries := reg.Counter("resolver_queries_total", "DNS lookups issued")
	inflight := reg.Gauge("conc_inflight_tasks", "tasks currently running")
	latency := reg.Histogram("lookup_seconds", "lookup latency", []float64{0.001, 0.1})

	inflight.Add(1)
	for i := 0; i < 3; i++ {
		queries.Inc()
		latency.Observe(0.0004)
	}
	inflight.Add(-1)

	s := reg.Snapshot()
	fmt.Println("metrics:", s.Counters[0].Name, s.Gauges[0].Name, s.Histograms[0].Name)
	fmt.Println("queries:", s.Counters[0].Value)
	fmt.Println("p50 under 1ms:", s.Histograms[0].Quantile(0.5) < 0.001)
	// Output:
	// metrics: resolver_queries_total conc_inflight_tasks lookup_seconds
	// queries: 3
	// p50 under 1ms: true
}

// ExampleStartSpan times a region of code with the span API. The span feeds the
// histogram named after it ("stage.demo" -> "stage_demo_seconds"), which the
// Prometheus endpoint and the -telemetry table then expose.
func ExampleStartSpan() {
	sp := telemetry.StartSpan("stage.demo")
	// ... the work being timed ...
	sp.End()

	for _, h := range telemetry.Default.Snapshot().Histograms {
		if h.Name == "stage_demo_seconds" {
			fmt.Println(h.Name, "observations:", h.Count)
		}
	}
	// Output:
	// stage_demo_seconds observations: 1
}

// ExampleRegistry_WritePrometheus renders the text exposition format served
// by depserver's /metrics endpoint.
func ExampleRegistry_WritePrometheus() {
	reg := telemetry.NewRegistry()
	reg.Counter("dnsserver_udp_queries_total", "queries served over UDP").Add(7)
	reg.WritePrometheus(os.Stdout)
	// Output:
	// # HELP dnsserver_udp_queries_total queries served over UDP
	// # TYPE dnsserver_udp_queries_total counter
	// dnsserver_udp_queries_total 7
}
