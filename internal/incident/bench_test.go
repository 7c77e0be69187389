package incident_test

import (
	"context"
	"sort"
	"sync"
	"testing"

	"depscope/internal/core"
	"depscope/internal/incident"
)

// The sweep fixture: one single-provider scenario per top-100 provider
// (merged across services, ranked by C_p) at scale 2K, seed 2020.
var (
	sweepOnce      sync.Once
	sweepGraph     *core.Graph
	sweepScenarios []*incident.Scenario
)

func sweepFixture(b *testing.B) (*core.Graph, []*incident.Scenario) {
	sweepOnce.Do(func() {
		run := runAt(b, 2020)
		g := run.Y2020.Graph
		opts := core.AllIndirect()
		best := map[string]int{}
		for _, svc := range []core.Service{core.DNS, core.CDN, core.CA} {
			for _, st := range g.TopProviders(svc, opts, false, 100) {
				if st.Concentration > best[st.Name] {
					best[st.Name] = st.Concentration
				}
			}
		}
		names := make([]string, 0, len(best))
		for name := range best {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool {
			if best[names[i]] != best[names[j]] {
				return best[names[i]] > best[names[j]]
			}
			return names[i] < names[j]
		})
		if len(names) > 100 {
			names = names[:100]
		}
		scenarios := make([]*incident.Scenario, len(names))
		for i, name := range names {
			scenarios[i] = &incident.Scenario{
				Name:    "bench-" + name,
				Targets: incident.Targets{Providers: []string{name}},
			}
		}
		sweepGraph, sweepScenarios = g, scenarios
	})
	return sweepGraph, sweepScenarios
}

// BenchmarkIncidentSweep fans the top-100 providers' single-outage
// scenarios through Sweep at scale 2K. bench/'s risk-20k workload runs the
// same sweep at 20K as part of each timed round.
func BenchmarkIncidentSweep(b *testing.B) {
	g, scenarios := sweepFixture(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reports, err := incident.Sweep(context.Background(), g, scenarios, 8)
		if err != nil {
			b.Fatal(err)
		}
		if len(reports) != len(scenarios) {
			b.Fatalf("got %d reports, want %d", len(reports), len(scenarios))
		}
	}
}

// BenchmarkIncidentMonteCarlo samples 1000 C_p-weighted randomized failure
// scenarios per iteration at scale 2K (the mc-baseline shape) and reports
// scenarios/sec alongside ns/op.
func BenchmarkIncidentMonteCarlo(b *testing.B) {
	g, _ := sweepFixture(b)
	const scenarios = 1000
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec := &incident.SweepSpec{Name: "bench-mc", Scenarios: scenarios, Seed: 1}
		rep, err := incident.MonteCarlo(context.Background(), g, spec, 8)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Scenarios != scenarios {
			b.Fatalf("ran %d scenarios, want %d", rep.Scenarios, scenarios)
		}
	}
	b.ReportMetric(float64(scenarios*b.N)/b.Elapsed().Seconds(), "scenarios/sec")
}
