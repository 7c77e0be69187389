package incident_test

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"testing"

	"depscope/internal/analysis"
	"depscope/internal/core"
	"depscope/internal/ecosystem"
	"depscope/internal/incident"
)

// The sweep fixture: one single-provider scenario per top-100 provider
// (merged across services, ranked by C_p) at scale 2K, seed 2020.
var (
	sweepOnce      sync.Once
	sweepGraph     *core.Graph
	sweepScenarios []*incident.Scenario
)

func sweepFixture(tb testing.TB) (*core.Graph, []*incident.Scenario) {
	sweepOnce.Do(func() {
		g := runAt(tb, 2020).Y2020.Graph
		sweepGraph, sweepScenarios = g, largestOutages(g, 100)
	})
	return sweepGraph, sweepScenarios
}

// largestOutages builds one single-provider scenario for each of g's n
// providers with the largest C_p, merged across services.
func largestOutages(g *core.Graph, n int) []*incident.Scenario {
	opts := core.AllIndirect()
	best := map[string]int{}
	for _, svc := range []core.Service{core.DNS, core.CDN, core.CA} {
		for _, st := range g.TopProviders(svc, opts, false, n) {
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
	if len(names) > n {
		names = names[:n]
	}
	scenarios := make([]*incident.Scenario, len(names))
	for i, name := range names {
		scenarios[i] = &incident.Scenario{
			Name:    "bench-" + name,
			Targets: incident.Targets{Providers: []string{name}},
		}
	}
	return scenarios
}

// TestSimulateAllocs guards the outage sweep's allocation shape: after
// warm-up, a Sweep allocates per chunk and per report, never per site and
// scenario. Over as many single-provider scenarios, a graph with twice the
// sites may allocate at most one more byte per added site and scenario; a
// fresh outcome array per scenario alone would cost ten.
func TestSimulateAllocs(t *testing.T) {
	small, scenarios := sweepFixture(t)
	run, err := analysis.Execute(context.Background(), analysis.Options{
		Scale: 2 * propScale, Seed: 2020, Snapshots: []ecosystem.Snapshot{ecosystem.Y2020},
	})
	if err != nil {
		t.Fatal(err)
	}
	large := run.Y2020.Graph
	sweepBytes := func(g *core.Graph, scenarios []*incident.Scenario) int64 {
		sweep := func() {
			if _, err := incident.Sweep(context.Background(), g, scenarios, 2); err != nil {
				t.Fatal(err)
			}
		}
		sweep()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sweep()
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	largeScenarios := largestOutages(large, len(scenarios))
	if len(largeScenarios) != len(scenarios) {
		t.Fatalf("%d scenarios at %d sites, %d at %d", len(largeScenarios), len(large.Sites), len(scenarios), len(small.Sites))
	}
	a, b := sweepBytes(small, scenarios), sweepBytes(large, largeScenarios)
	perSite := float64(b-a) / float64((len(large.Sites)-len(small.Sites))*len(scenarios))
	t.Logf("%d scenarios: %d bytes at %d sites, %d at %d: %.2f bytes per added site and scenario",
		len(scenarios), a, len(small.Sites), b, len(large.Sites), perSite)
	if perSite > 1 {
		t.Errorf("a sweep allocates %.2f bytes per added site and scenario, want at most 1", perSite)
	}
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

// BenchmarkMitigationPlan computes the K=25 mitigation plan over the sweep
// fixture's 2K graph, the plan bench/'s risk-20k workload makes at 20K in
// each timed round.
func BenchmarkMitigationPlan(b *testing.B) {
	g, _ := sweepFixture(b)
	g.MitigationPlan(25, core.AllIndirect())
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if plan := g.MitigationPlan(25, core.AllIndirect()); len(plan.Options) == 0 {
			b.Fatal("empty plan")
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
