package incident_test

import (
	"context"
	"math"
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

// TestMonteCarloAllocs guards the Monte-Carlo sweep's allocation shape: a
// sweep allocates per worker, per failure unit and per report, and per
// scenario only its outputs. Doubling Scenarios may add at most those
// output bytes: 8 for each of the down, degraded and failure-count entries
// and for summarize's sorted copy of each, and with recovery steps the same
// again for the time-to-recover entry and every step's entry, plus 1 KiB
// for what the runtime allocates beside the sweep (a few dozen bytes in
// some runs). The arms cover independent and correlated failures, joint
// failures, and recovery checkpoints with and without joint failures.
func TestMonteCarloAllocs(t *testing.T) {
	g, _ := sweepFixture(t)
	arms := []struct{ name, spec string }{
		{"baseline", "mc-baseline"},
		{"entity-storm", "mc-entity-storm"},
		{"dns-deep", "mc-dns-deep"},
		{"recovery", "mc-baseline+recovery"},
		{"joint-recovery", "mc-dns-deep+recovery"},
	}
	const n = 4096
	for _, arm := range arms {
		sweepBytes := func(scenarios int) uint64 {
			best := uint64(math.MaxUint64)
			for r := 0; r < 5; r++ {
				sp, _ := sweepSpec(arm.spec)
				sp.Scenarios = scenarios
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := incident.MonteCarlo(context.Background(), g, sp, 2); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				best = min(best, after.TotalAlloc-before.TotalAlloc)
			}
			return best
		}
		perScenario := 8 * 2 * 3
		if sp, _ := sweepSpec(arm.spec); sp.Recovery != nil {
			perScenario += 8 * 2 * (1 + sp.Recovery.Steps)
		}
		a, b := sweepBytes(n), sweepBytes(2*n)
		t.Logf("%s: %d bytes at %d scenarios, %d at %d: %.1f bytes per added scenario (budget %d)",
			arm.name, a, n, b, 2*n, float64(int64(b)-int64(a))/n, perScenario)
		if budget := int64(n*perScenario + 1024); int64(b)-int64(a) > budget {
			t.Errorf("%s: %d more scenarios allocate %d more bytes, want at most %d", arm.name, n, int64(b)-int64(a), budget)
		}
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

// BenchmarkIncidentMonteCarlo samples 1000 randomized failure scenarios
// per iteration at scale 2K and reports scenarios/sec alongside ns/op, in
// three arms: baseline (the mc-baseline shape, C_p-weighted independent
// failures), entity-storm (correlated groups) and dns-deep (the full DNS
// pool under joint failures, where each closure union is repaired).
func BenchmarkIncidentMonteCarlo(b *testing.B) {
	g, _ := sweepFixture(b)
	const scenarios = 1000
	for _, arm := range []struct{ name, preset string }{
		{"baseline", "mc-baseline"},
		{"entity-storm", "mc-entity-storm"},
		{"dns-deep", "mc-dns-deep"},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spec, _ := incident.SweepPreset(arm.preset)
				spec.Scenarios = scenarios
				rep, err := incident.MonteCarlo(context.Background(), g, spec, 8)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Scenarios != scenarios {
					b.Fatalf("ran %d scenarios, want %d", rep.Scenarios, scenarios)
				}
			}
			b.ReportMetric(float64(scenarios*b.N)/b.Elapsed().Seconds(), "scenarios/sec")
		})
	}
}
