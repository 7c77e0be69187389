package core_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"depscope/internal/analysis"
	"depscope/internal/core"
)

// TestCriticalWalkMatchesOracle holds the critical-provider walk over the
// arrangement table against the pointer-map walk it replaced
// (CriticalWalkMismatches in export_test.go) under every traversal of
// allTraversals — DirectOnly, AllIndirect, AllImplicit (the gate the
// site-side walks use, which continues through every service) and a CA-only
// gate — on random graphs with and without chains, a measured graph, and a
// graph Graph.Apply derived from it.
func TestCriticalWalkMatchesOracle(t *testing.T) {
	check := func(label string, g *core.Graph) {
		t.Helper()
		for _, opts := range allTraversals {
			bad := core.CriticalWalkMismatches(g, opts)
			for i, m := range bad {
				if i == 5 {
					t.Errorf("%s via %v: %d more mismatches", label, opts.ViaProviders, len(bad)-i)
					break
				}
				t.Errorf("%s via %v: %s", label, opts.ViaProviders, m)
			}
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		g := core.RandomGraph(seed)
		check(fmt.Sprintf("random %d", seed), g)
		check(fmt.Sprintf("random+chains %d", seed), withChains(g, seed))
	}
	run, err := analysis.Execute(context.Background(), analysis.Options{Scale: 1000, Seed: 2020})
	if err != nil {
		t.Fatal(err)
	}
	check("measured 2016", run.Y2016.Graph)
	check("measured 2020", run.Y2020.Graph)
	check("measured 2020 after Apply", applyDelta(t, run.Y2020.Graph))
}

// TestOutageSimColdConcurrent first uses every traversal's simulator, and
// the critical-provider walks, concurrently on a cold graph: the shared
// arrangement and simulator tables are built once, by whichever caller
// comes first, and every result must equal the one a separately built
// graph gives sequentially. Run under -race (make race) it also checks the
// lazy builds for data races.
func TestOutageSimColdConcurrent(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		ref := core.RandomGraph(seed)
		targets := ref.ProviderNames()[:2]
		g := core.RandomGraph(seed)
		got := make([]*core.OutageResult, len(allTraversals))
		var deps map[string]int
		var plan *core.MitigationPlan
		var wg sync.WaitGroup
		for i, opts := range allTraversals {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = g.OutageSim(opts).Run(targets, core.OutageOpts{JointFailures: true})
			}()
		}
		wg.Add(2)
		go func() { defer wg.Done(); deps = g.CriticalDepsPerSite(true) }()
		go func() { defer wg.Done(); plan = g.MitigationPlan(3, core.AllIndirect()) }()
		wg.Wait()

		for i, opts := range allTraversals {
			if want := ref.OutageSim(opts).Run(targets, core.OutageOpts{JointFailures: true}); !reflect.DeepEqual(got[i], want) {
				t.Errorf("seed %d via %v: concurrent cold run = %+v, want %+v", seed, opts.ViaProviders, got[i], want)
			}
		}
		if want := ref.CriticalDepsPerSite(true); !reflect.DeepEqual(deps, want) {
			t.Errorf("seed %d: CriticalDepsPerSite = %v, want %v", seed, deps, want)
		}
		if want := ref.MitigationPlan(3, core.AllIndirect()); !reflect.DeepEqual(plan, want) {
			t.Errorf("seed %d: MitigationPlan = %+v, want %+v", seed, plan, want)
		}
	}
}
