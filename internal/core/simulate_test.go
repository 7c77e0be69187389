package core

import (
	"testing"
	"testing/quick"
)

// Property: with one target at full severity and default semantics, the
// simulator reproduces the §2.2 sets exactly — down sites equal ImpactSet
// membership and affected (down or degraded) sites equal ConcentrationSet
// membership, for every provider and traversal.
func TestPropertySimulateMatchesMetricSets(t *testing.T) {
	optsList := []TraversalOpts{DirectOnly(), AllIndirect(), {ViaProviders: []Service{CA}}}
	f := func(seed int64) bool {
		g := randomGraph(seed)
		for _, opts := range optsList {
			sim := g.OutageSim(opts)
			for _, name := range g.ProviderNames() {
				res := sim.Run([]string{name}, OutageOpts{})
				imp := g.impactSetRecursive(name, opts)
				conc := g.concentrationSetRecursive(name, opts)
				down, affected := 0, 0
				for i, s := range g.Sites {
					isDown := res.Outcomes[i] == SiteDown
					isAffected := res.Outcomes[i] != SiteUnaffected
					if isDown {
						down++
					}
					if isAffected {
						affected++
					}
					if isDown != imp[s.Name] {
						t.Logf("seed %d %v %s: site %s down=%v impact=%v",
							seed, opts.ViaProviders, name, s.Name, isDown, imp[s.Name])
						return false
					}
					if isAffected != conc[s.Name] {
						t.Logf("seed %d %v %s: site %s affected=%v concentration=%v",
							seed, opts.ViaProviders, name, s.Name, isAffected, conc[s.Name])
						return false
					}
				}
				if down != res.Down || affected != res.Down+res.Degraded {
					return false
				}
				if res.Down+res.Degraded+res.Unaffected != len(g.Sites) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: a multi-target run's down set is the union of the single-target
// impact sets (default semantics make down-propagation per-provider), and
// resilience scores stay in [0,1] with unaffected sites at exactly 1.
func TestPropertySimulateMultiTargetUnion(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed)
		names := g.ProviderNames()
		if len(names) < 2 {
			return true
		}
		targets := []string{names[0], names[len(names)/2], names[len(names)-1]}
		sim := g.OutageSim(AllIndirect())
		res := sim.Run(targets, OutageOpts{})
		union := make(map[string]bool)
		for _, tgt := range targets {
			for s := range g.impactSetRecursive(tgt, AllIndirect()) {
				union[s] = true
			}
		}
		for i, s := range g.Sites {
			if (res.Outcomes[i] == SiteDown) != union[s.Name] {
				return false
			}
			if r := res.Resilience[i]; r < 0 || r > 1 {
				return false
			}
			if res.Outcomes[i] == SiteUnaffected && res.Resilience[i] != 1 {
				return false
			}
			if res.Outcomes[i] == SiteDown && res.Resilience[i] == 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// jointGraph is the redundancy-exhaustion fixture: s1 is redundantly on CDNs
// A and B, s2 is critically on CDN X which is itself redundantly on DNS
// providers dA and dB, and s3 keeps a private fallback next to A.
func jointGraph() *Graph {
	sites := []*Site{
		{Name: "s1", Rank: 1, Deps: map[Service]Dep{
			CDN: {Class: ClassMultiThird, Providers: []string{"A", "B"}},
		}},
		{Name: "s2", Rank: 2, Deps: map[Service]Dep{
			CDN: {Class: ClassSingleThird, Providers: []string{"X"}},
		}},
		{Name: "s3", Rank: 3, Deps: map[Service]Dep{
			CDN: {Class: ClassPrivatePlusThird, Providers: []string{"A"}},
		}},
	}
	providers := []*Provider{
		{Name: "A", Service: CDN, Deps: map[Service]Dep{}},
		{Name: "B", Service: CDN, Deps: map[Service]Dep{}},
		{Name: "X", Service: CDN, Deps: map[Service]Dep{
			DNS: {Class: ClassMultiThird, Providers: []string{"dA", "dB"}},
		}},
	}
	return NewGraph(sites, providers)
}

func outcomeOf(g *Graph, res *OutageResult, name string) SiteOutcome {
	for i, s := range g.Sites {
		if s.Name == name {
			return res.Outcomes[i]
		}
	}
	return SiteUnaffected
}

func TestSimulateJointFailures(t *testing.T) {
	g := jointGraph()
	sim := g.OutageSim(AllIndirect())

	// Default semantics: redundancy is absolute. Both of s1's CDNs down
	// still only degrades it.
	res := sim.Run([]string{"A", "B"}, OutageOpts{})
	if got := outcomeOf(g, res, "s1"); got != SiteDegraded {
		t.Errorf("default A+B: s1 = %v, want degraded", got)
	}

	// Joint failures: the multi-third arrangement is exhausted.
	res = sim.Run([]string{"A", "B"}, OutageOpts{JointFailures: true})
	if got := outcomeOf(g, res, "s1"); got != SiteDown {
		t.Errorf("joint A+B: s1 = %v, want down", got)
	}
	// The private+third site keeps its fallback even under joint failures.
	if got := outcomeOf(g, res, "s3"); got != SiteDegraded {
		t.Errorf("joint A+B: s3 = %v, want degraded", got)
	}
	// One of two down does not exhaust the arrangement.
	res = sim.Run([]string{"A"}, OutageOpts{JointFailures: true})
	if got := outcomeOf(g, res, "s1"); got != SiteDegraded {
		t.Errorf("joint A: s1 = %v, want degraded", got)
	}

	// Exhaustion cascades: both of X's DNS providers down takes X down
	// under joint semantics, and s2 with it; under default semantics X (and
	// s2) only degrade.
	res = sim.Run([]string{"dA", "dB"}, OutageOpts{JointFailures: true})
	if got := outcomeOf(g, res, "s2"); got != SiteDown {
		t.Errorf("joint dA+dB: s2 = %v, want down", got)
	}
	found := false
	for _, p := range res.DownProviders {
		if p == "X" {
			found = true
		}
	}
	if !found {
		t.Errorf("joint dA+dB: X not in down providers %v", res.DownProviders)
	}
	res = sim.Run([]string{"dA", "dB"}, OutageOpts{})
	if got := outcomeOf(g, res, "s2"); got != SiteDegraded {
		t.Errorf("default dA+dB: s2 = %v, want degraded", got)
	}
}

func TestSimulateSeverity(t *testing.T) {
	g := jointGraph()
	sim := g.OutageSim(AllIndirect())
	// A partial outage degrades, never kills: even the critically dependent
	// site survives in degraded state.
	res := sim.Run([]string{"X"}, OutageOpts{Severity: 0.4})
	if res.Down != 0 {
		t.Fatalf("severity 0.4: %d sites down, want 0", res.Down)
	}
	if got := outcomeOf(g, res, "s2"); got != SiteDegraded {
		t.Errorf("severity 0.4: s2 = %v, want degraded", got)
	}
	full := sim.Run([]string{"X"}, OutageOpts{Severity: 1})
	if got := outcomeOf(g, full, "s2"); got != SiteDown {
		t.Errorf("severity 1: s2 = %v, want down", got)
	}
	// Direct victims are flagged; collateral is not.
	if !full.Direct[1] {
		t.Errorf("s2 should be a direct victim of X")
	}
	if full.Direct[0] {
		t.Errorf("s1 is not a direct victim of X")
	}
}

// TestRunCountsAllocs guards the Monte-Carlo inner loop: with a warmed
// SimScratch, RunCounts allocates nothing, in every outage mode, including
// when markSites ORs in a dense row.
func TestRunCountsAllocs(t *testing.T) {
	g := randomGraph(7)
	sim := g.OutageSim(AllIndirect())
	if dense, _ := sim.RowForms(); dense == 0 {
		t.Fatal("fixture has no dense provider→site row; the guard would miss that path")
	}
	var ids []int32
	for _, n := range g.ProviderNames() {
		id, _ := sim.ProviderID(n)
		ids = append(ids, id)
	}
	ids = ids[:(len(ids)+1)/2]
	modes := []OutageOpts{{}, {Severity: 0.5}, {JointFailures: true}}
	var sc SimScratch
	run := func() {
		for _, o := range modes {
			sim.RunCounts(ids, o, &sc)
		}
	}
	run()
	if down, _ := sim.RunCounts(ids, OutageOpts{}, &sc); down == 0 {
		t.Fatal("fixture takes no site down; the guard would measure nothing")
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("RunCounts with a warmed scratch: %v allocs per run, want 0", allocs)
	}
}

// Regression: degenerate inputs — empty graphs and zero-site graphs — yield
// empty metric results and outcome-free simulations instead of allocating
// zero-width bitset views (or panicking).
func TestMetricsAndSimulateEmptyGraph(t *testing.T) {
	empty := NewGraph(nil, nil)
	if n := empty.Concentration("anything", AllIndirect()); n != 0 {
		t.Errorf("empty graph concentration = %d, want 0", n)
	}
	if n := empty.Impact("anything", AllIndirect()); n != 0 {
		t.Errorf("empty graph impact = %d, want 0", n)
	}
	conc, imp := empty.Metrics().Counts(AllIndirect())
	if len(conc) != 0 || len(imp) != 0 {
		t.Errorf("empty graph counts: %d conc, %d imp entries, want 0", len(conc), len(imp))
	}
	if res := empty.OutageSim(AllIndirect()).Run([]string{"anything"}, OutageOpts{}); len(res.Outcomes) != 0 || res.Down != 0 {
		t.Errorf("empty graph simulation produced outcomes: %+v", res)
	}

	// Providers but no sites: the provider universe is non-empty, every
	// count is still zero.
	noSites := NewGraph(nil, []*Provider{{
		Name: "X", Service: CDN,
		Deps: map[Service]Dep{DNS: {Class: ClassSingleThird, Providers: []string{"d"}}},
	}})
	if n := noSites.Concentration("d", AllIndirect()); n != 0 {
		t.Errorf("zero-site graph concentration = %d, want 0", n)
	}
	if n := noSites.Impact("X", AllIndirect()); n != 0 {
		t.Errorf("zero-site graph impact = %d, want 0", n)
	}
	res := noSites.OutageSim(AllIndirect()).Run([]string{"d"}, OutageOpts{})
	if len(res.Outcomes) != 0 {
		t.Errorf("zero-site simulation produced site outcomes")
	}
	// The provider cascade still runs: X depends critically on d.
	if len(res.DownProviders) != 2 {
		t.Errorf("down providers = %v, want [X d]", res.DownProviders)
	}
}

func TestProvidersOfService(t *testing.T) {
	g := jointGraph()
	got := g.ProvidersOfService(CDN)
	want := []string{"A", "B", "X"}
	if len(got) != len(want) {
		t.Fatalf("ProvidersOfService(CDN) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ProvidersOfService(CDN) = %v, want %v", got, want)
		}
	}
	// dA/dB are leaf DNS names: discovered through provider deps only, so
	// they are not providers *of a service used by sites* here.
	if dns := g.ProvidersOfService(DNS); len(dns) != 0 {
		t.Errorf("ProvidersOfService(DNS) = %v, want empty (leaf names only)", dns)
	}
	// But the full provider universe knows them.
	names := g.ProviderNames()
	has := func(n string) bool {
		for _, v := range names {
			if v == n {
				return true
			}
		}
		return false
	}
	for _, n := range []string{"A", "B", "X", "dA", "dB"} {
		if !has(n) {
			t.Errorf("ProviderNames missing %s: %v", n, names)
		}
	}
}
