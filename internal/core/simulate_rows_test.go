// Equivalence of the provider→site row evaluation (Run, RunCounts) with the
// per-site scan it replaced (ScanRun, ScanCounts in export_test.go). This is
// an external test package so it can measure real graphs through analysis.
package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"depscope/internal/analysis"
	"depscope/internal/chain"
	"depscope/internal/core"
	"depscope/internal/ecosystem"
)

// outageModes is every severity × JointFailures combination.
var outageModes = []core.OutageOpts{
	{},
	{Severity: 0.5},
	{JointFailures: true},
	{Severity: 0.5, JointFailures: true},
}

// checkAgainstScan runs rounds random target sets per traversal and outage
// mode through RunCounts and Run and fails on any difference from the scan.
// Target sets mix uniform draws from the provider universe, the most
// concentrated providers, and every provider of one site's arrangement (so
// multi-third arrangements get exhausted under JointFailures).
func checkAgainstScan(t *testing.T, label string, g *core.Graph, optsList []core.TraversalOpts, rounds int, seed int64) {
	t.Helper()
	names := g.ProviderNames()
	if len(names) == 0 {
		return
	}
	var top []string
	for _, svc := range core.AllServices {
		for _, st := range g.TopProviders(svc, core.AllIndirect(), false, 20) {
			top = append(top, st.Name)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	draw := func() []string {
		var out []string
		for k := 1 + rng.Intn(6); k > 0; k-- {
			switch r := rng.Intn(3); {
			case r == 0 && len(top) > 0:
				out = append(out, top[rng.Intn(len(top))])
			case r == 1 && len(g.Sites) > 0:
				s := g.Sites[rng.Intn(len(g.Sites))]
				for _, svc := range core.AllServices {
					out = append(out, s.Deps[svc].Providers...)
				}
			default:
				out = append(out, names[rng.Intn(len(names))])
			}
		}
		if rng.Intn(10) == 0 {
			out = append(out, "no-such-provider.example")
		}
		return out
	}

	for _, opts := range optsList {
		sim := g.OutageSim(opts)
		var sc core.SimScratch // shared across rounds: reuse must not leak state
		for _, o := range outageModes {
			for r := 0; r < rounds; r++ {
				matchScan(t, fmt.Sprintf("%s via %v", label, opts.ViaProviders), sim, draw(), o, &sc)
			}
		}
	}
}

// matchScan fails unless RunCounts and Run agree with the scan oracle, and
// with each other, on one outage of targets under o.
func matchScan(t *testing.T, label string, sim *core.OutageSim, targets []string, o core.OutageOpts, sc *core.SimScratch) {
	t.Helper()
	var ids []int32
	for _, n := range targets {
		if id, ok := sim.ProviderID(n); ok {
			ids = append(ids, id)
		}
	}
	down, degraded := sim.RunCounts(ids, o, sc)
	wantDown, wantDegraded := sim.ScanCounts(ids, o)
	if down != wantDown || degraded != wantDegraded {
		t.Fatalf("%s %+v targets %v: RunCounts = (%d, %d), scan = (%d, %d)",
			label, o, targets, down, degraded, wantDown, wantDegraded)
	}
	got, want := sim.Run(targets, o), sim.ScanRun(targets, o)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %+v targets %v: Run differs from scan\nrun:  %+v\nscan: %+v",
			label, o, targets, got, want)
	}
	if got.Down != down || got.Degraded != degraded {
		t.Fatalf("%s %+v targets %v: Run counts (%d, %d), RunCounts (%d, %d)",
			label, o, targets, got.Down, got.Degraded, down, degraded)
	}
}

// checkMeasuredAgainstScan is checkAgainstScan for a measured graph, which
// is large enough to hold both row forms: it first requires at least one
// dense and one sparse provider→site row, so the comparison exercises both
// ways markSites unions a row.
func checkMeasuredAgainstScan(t *testing.T, label string, g *core.Graph, optsList []core.TraversalOpts, rounds int, seed int64) {
	t.Helper()
	dense, sparse := g.OutageSim(optsList[0]).RowForms()
	if dense == 0 || sparse == 0 {
		t.Fatalf("%s: %d dense and %d sparse rows, want at least one of each", label, dense, sparse)
	}
	checkAgainstScan(t, label, g, optsList, rounds, seed)
}

var allTraversals = []core.TraversalOpts{
	core.DirectOnly(),
	core.AllIndirect(),
	core.AllImplicit(),
	{ViaProviders: []core.Service{core.CA}},
}

// withChains rebuilds g with resource-chain vendors: provider nodes of the
// Resource service (some depending on g's providers, so AllImplicit
// continues through them) and per-site chain edges, duplicates included.
func withChains(g *core.Graph, seed int64) *core.Graph {
	rng := rand.New(rand.NewSource(seed))
	var pnames []string
	for n := range g.Providers {
		pnames = append(pnames, n)
	}
	sort.Strings(pnames)
	var providers []*core.Provider
	for _, n := range pnames {
		providers = append(providers, g.Providers[n])
	}
	var vendors []string
	for v := 1 + rng.Intn(4); v > 0; v-- {
		vp := &core.Provider{Name: fmt.Sprintf("vendor%d.example", v), Service: core.Resource, Deps: map[core.Service]core.Dep{}}
		if rng.Intn(2) == 0 && len(pnames) > 0 {
			class := core.ClassSingleThird
			deps := []string{pnames[rng.Intn(len(pnames))]}
			if rng.Intn(3) == 0 {
				class = core.ClassMultiThird
				deps = append(deps, pnames[rng.Intn(len(pnames))])
			}
			vp.Deps[core.DNS] = core.Dep{Class: class, Providers: deps}
		}
		providers = append(providers, vp)
		vendors = append(vendors, vp.Name)
	}
	sites := make([]*core.Site, len(g.Sites))
	for i, s := range g.Sites {
		cp := *s
		for k := rng.Intn(4); k > 0; k-- {
			cp.Chains = append(cp.Chains, core.ChainEdge{Provider: vendors[rng.Intn(len(vendors))], Depth: 1 + rng.Intn(3)})
		}
		sites[i] = &cp
	}
	return core.NewGraph(sites, providers)
}

func TestRunMatchesSiteScanRandom(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		g := core.RandomGraph(seed)
		checkAgainstScan(t, fmt.Sprintf("random %d", seed), g, allTraversals, 15, seed)
		checkAgainstScan(t, fmt.Sprintf("random+chains %d", seed), withChains(g, seed), allTraversals, 15, seed)
	}
}

// TestRunMatchesSiteScanMeasured covers the measured 2K universe (seeds 1
// and 2020, both snapshots), a chains-enabled measured graph, and a graph
// Graph.Apply derived from a measured one with its metrics engine carried
// across the delta.
func TestRunMatchesSiteScanMeasured(t *testing.T) {
	for _, seed := range []int64{1, 2020} {
		run, err := analysis.Execute(context.Background(), analysis.Options{Scale: 2000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, sd := range []*analysis.SnapshotData{run.Y2016, run.Y2020} {
			checkMeasuredAgainstScan(t, fmt.Sprintf("seed %d %s", seed, sd.Snapshot), sd.Graph, allTraversals, 40, seed)
		}
		if seed == 2020 {
			ng := applyDelta(t, run.Y2020.Graph)
			checkMeasuredAgainstScan(t, "seed 2020 after Apply", ng, allTraversals, 40, seed)
		}
	}

	cfg := chain.Default()
	run, err := analysis.Execute(context.Background(), analysis.Options{
		Scale: 2000, Seed: 2020, Chains: &cfg, Snapshots: []ecosystem.Snapshot{ecosystem.Y2020},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := run.Y2020.Graph
	edges := 0
	for _, s := range g.Sites {
		edges += len(s.Chains)
	}
	if edges == 0 {
		t.Fatal("chains-enabled run produced no chain edges")
	}
	checkMeasuredAgainstScan(t, "seed 2020 chains", g, []core.TraversalOpts{core.AllIndirect(), core.DirectOnly(), core.AllImplicit()}, 40, 7)
}

// applyDelta swaps the DNS provider of a few single-third sites, removes one
// site and adds one, after warming g's metrics engine and simulators so the
// successor graph inherits a patched engine.
func applyDelta(t *testing.T, g *core.Graph) *core.Graph {
	t.Helper()
	g.Metrics().Counts(core.AllIndirect())
	g.OutageSim(core.AllIndirect())
	top := g.TopProviders(core.DNS, core.AllIndirect(), false, 2)
	if len(top) < 2 {
		t.Fatal("need two DNS providers")
	}
	var ops []core.Op
	for _, s := range g.Sites {
		d, ok := s.Deps[core.DNS]
		if !ok || d.Class != core.ClassSingleThird || len(ops) == 5 {
			continue
		}
		to := top[0].Name
		if d.Providers[0] == to {
			to = top[1].Name
		}
		ops = append(ops, core.Op{Kind: core.OpSwap, Name: s.Name, Service: core.DNS, From: d.Providers[0], To: to})
	}
	ops = append(ops,
		core.Op{Kind: core.OpSiteRemove, Name: g.Sites[len(g.Sites)/2].Name},
		core.Op{Kind: core.OpSiteAdd, Site: &core.Site{Name: "added.example", Rank: len(g.Sites) + 1, Deps: map[core.Service]core.Dep{
			core.DNS: {Class: core.ClassMultiThird, Providers: []string{top[0].Name, top[1].Name}},
		}}},
	)
	ng, _, err := g.Apply(core.Delta{Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	return ng
}

// TestRunMatchesSiteScanRowBoundary pins the density rule at its edge: at
// 200 sites the site bitset has 4 words, so a row of 4 entries is ORed in
// as a bitset and a row of 3 is walked entry by entry. Each provider has
// one row of each length, placed across word boundaries and in the partial
// last word, and every subset of providers fails in every outage mode.
func TestRunMatchesSiteScanRowBoundary(t *testing.T) {
	const nSites = 200
	dep := func(class core.DepClass, provs ...string) core.Dep { return core.Dep{Class: class, Providers: provs} }
	sites := make([]*core.Site, nSites)
	for i := range sites {
		sites[i] = &core.Site{Name: fmt.Sprintf("s%d.example", i), Rank: i + 1, Deps: map[core.Service]core.Dep{
			core.DNS: dep(core.ClassSingleThird, "filler.example"),
		}}
	}
	set := func(svc core.Service, d core.Dep, idx ...int) {
		for _, i := range idx {
			sites[i].Deps[svc] = d
		}
	}
	// a: critical row of 4 (dense), redundant row of 3 (sparse).
	set(core.DNS, dep(core.ClassSingleThird, "a.example"), 0, 63, 64, 199)
	set(core.CDN, dep(core.ClassMultiThird, "a.example", "b.example"), 1, 127, 128)
	// b: critical row of 3 (sparse), redundant row of 4 (dense).
	set(core.CDN, dep(core.ClassSingleThird, "b.example"), 2, 65, 190)
	set(core.DNS, dep(core.ClassMultiThird, "b.example", "c.example"), 3)
	providers := []*core.Provider{
		{Name: "a.example", Service: core.DNS},
		{Name: "b.example", Service: core.CDN, Deps: map[core.Service]core.Dep{core.DNS: dep(core.ClassSingleThird, "a.example")}},
		{Name: "c.example", Service: core.DNS},
		{Name: "filler.example", Service: core.DNS},
	}
	g := core.NewGraph(sites, providers)

	// Dense: a's critical row, b's redundant row, filler's critical row of
	// 195. Sparse: a's redundant row, b's critical row, c's redundant row.
	if dense, sparse := g.OutageSim(core.AllIndirect()).RowForms(); dense != 3 || sparse != 3 {
		t.Fatalf("row forms = (%d dense, %d sparse), want (3, 3)", dense, sparse)
	}
	names := []string{"a.example", "b.example", "c.example", "filler.example"}
	for _, opts := range allTraversals {
		sim := g.OutageSim(opts)
		var sc core.SimScratch
		for _, o := range outageModes {
			for mask := 0; mask < 1<<len(names); mask++ {
				var targets []string
				for k, n := range names {
					if mask&(1<<k) != 0 {
						targets = append(targets, n)
					}
				}
				matchScan(t, fmt.Sprintf("boundary via %v", opts.ViaProviders), sim, targets, o, &sc)
			}
		}
	}
}
