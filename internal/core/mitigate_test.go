package core

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// mitigationFixture builds a small graph with hand-checkable closures:
//
//	s1: DNS single dynect                        → contributes {dynect}
//	s2: DNS multi {dynect,awsdns}, CDN single fastly (fastly→DNS dynect)
//	                                             → contributes {fastly,dynect}
//	s3: DNS single awsdns, CA single digicert (digicert→DNS awsdns)
//	                                             → contributes {awsdns,digicert}
//	s4: private CDN cdn.s4 (cdn.s4→DNS dynect)   → contributes {cdn.s4,dynect}
//
// Aggregate before = 1+2+2+2 = 7. Called fresh per use so surgery tests can
// mutate their copy.
func mitigationFixture() *Graph {
	sites := []*Site{
		{Name: "s1", Rank: 1, Deps: map[Service]Dep{
			DNS: {Class: ClassSingleThird, Providers: []string{"dynect.net"}},
		}},
		{Name: "s2", Rank: 2, Deps: map[Service]Dep{
			DNS: {Class: ClassMultiThird, Providers: []string{"dynect.net", "awsdns.net"}},
			CDN: {Class: ClassSingleThird, Providers: []string{"fastly.net"}},
		}},
		{Name: "s3", Rank: 3, Deps: map[Service]Dep{
			DNS: {Class: ClassSingleThird, Providers: []string{"awsdns.net"}},
			CA:  {Class: ClassSingleThird, Providers: []string{"digicert.com"}},
		}},
		{Name: "s4", Rank: 4,
			Deps: map[Service]Dep{
				DNS: {Class: ClassPrivate},
			},
			PrivateInfra: map[Service][]string{
				CDN: {"cdn.s4.com"},
			}},
	}
	providers := []*Provider{
		{Name: "fastly.net", Service: CDN, Deps: map[Service]Dep{
			DNS: {Class: ClassSingleThird, Providers: []string{"dynect.net"}},
		}},
		{Name: "cdn.s4.com", Service: CDN, Deps: map[Service]Dep{
			DNS: {Class: ClassSingleThird, Providers: []string{"dynect.net"}},
		}},
		{Name: "digicert.com", Service: CA, Deps: map[Service]Dep{
			DNS: {Class: ClassSingleThird, Providers: []string{"awsdns.net"}},
		}},
	}
	return NewGraph(sites, providers)
}

func TestMitigationPlanSmall(t *testing.T) {
	g := mitigationFixture()
	plan := g.MitigationPlan(10, AllIndirect())

	if plan.Before != 7 {
		t.Fatalf("before = %d, want 7", plan.Before)
	}
	if plan.Candidates != 4 {
		t.Fatalf("candidates = %d, want 4 (s1 DNS, s2 CDN, s3 DNS, s3 CA)", plan.Candidates)
	}
	// Greedy order: s2 CDN removes {fastly,dynect} (gain 2); then s1 DNS and
	// s3 CA tie at gain 1 and break by site order; after s3 CA is picked,
	// s3 DNS's awsdns is no longer shadowed (gain 1). s4's private chain is
	// not mitigable, so its {cdn.s4,dynect} contribution stays.
	want := []MitigationOption{
		{Site: "s2", Rank: 2, Service: "CDN", Provider: "fastly.net", Gain: 2, Cumulative: 2},
		{Site: "s1", Rank: 1, Service: "DNS", Provider: "dynect.net", Gain: 1, Cumulative: 3},
		{Site: "s3", Rank: 3, Service: "CA", Provider: "digicert.com", Gain: 1, Cumulative: 4},
		{Site: "s3", Rank: 3, Service: "DNS", Provider: "awsdns.net", Gain: 1, Cumulative: 5},
	}
	if !reflect.DeepEqual(plan.Options, want) {
		t.Fatalf("options = %+v\nwant %+v", plan.Options, want)
	}
	if plan.After != 2 || plan.Reduction() != 5 {
		t.Fatalf("after = %d (reduction %d), want after 2, reduction 5", plan.After, plan.Reduction())
	}

	// Per-provider deltas: dynect loses s1 and s2 but keeps s4 (private);
	// the rest drop to zero.
	wantDeltas := []ProviderImpactDelta{
		{Name: "dynect.net", Before: 3, After: 1},
		{Name: "awsdns.net", Before: 1, After: 0},
		{Name: "digicert.com", Before: 1, After: 0},
		{Name: "fastly.net", Before: 1, After: 0},
	}
	if !reflect.DeepEqual(plan.ProviderDeltas, wantDeltas) {
		t.Fatalf("deltas = %+v\nwant %+v", plan.ProviderDeltas, wantDeltas)
	}

	// A tighter budget truncates the same greedy sequence.
	k2 := g.MitigationPlan(2, AllIndirect())
	if !reflect.DeepEqual(k2.Options, want[:2]) || k2.After != 4 {
		t.Fatalf("k=2 options = %+v, after = %d", k2.Options, k2.After)
	}
}

// TestMitigationBeforeMatchesEngine pins the objective decomposition: the
// optimizer's "before" total must equal Σ_p |I_p| from the metrics engine,
// for every traversal, across random graphs.
func TestMitigationBeforeMatchesEngine(t *testing.T) {
	traversals := []TraversalOpts{
		AllIndirect(),
		DirectOnly(),
		{ViaProviders: []Service{DNS}},
		{ViaProviders: []Service{CDN, CA}},
	}
	for seed := int64(0); seed < 40; seed++ {
		g := randomGraph(seed)
		for _, opts := range traversals {
			plan := g.MitigationPlan(1, opts)
			_, imp := g.Metrics().Counts(opts)
			sum := 0
			for _, n := range imp {
				sum += n
			}
			if plan.Before != sum {
				t.Fatalf("seed %d opts %+v: plan before = %d, engine Σ|I_p| = %d",
					seed, opts, plan.Before, sum)
			}
		}
	}
}

// applyPlan performs the graph surgery a mitigation plan prescribes: each
// chosen arrangement gains a fresh backup provider and becomes multi-third
// (no longer critical).
func applyPlan(g *Graph, plan *MitigationPlan) *Graph {
	byName := make(map[string]*Site, len(g.Sites))
	sites := make([]*Site, len(g.Sites))
	for i, s := range g.Sites {
		cp := *s
		cp.Deps = make(map[Service]Dep, len(s.Deps))
		for svc, d := range s.Deps {
			cp.Deps[svc] = d
		}
		sites[i] = &cp
		byName[cp.Name] = &cp
	}
	var providers []*Provider
	for _, p := range g.Providers {
		providers = append(providers, p)
	}
	for i, o := range plan.Options {
		var svc Service
		for _, s := range Services {
			if s.String() == o.Service {
				svc = s
			}
		}
		site := byName[o.Site]
		d := site.Deps[svc]
		d.Class = ClassMultiThird
		d.Providers = append(append([]string(nil), d.Providers...), "backup"+itoa(i)+".example")
		site.Deps[svc] = d
	}
	return NewGraph(sites, providers)
}

// TestMitigationAfterMatchesSurgery verifies the predicted "after" total the
// hard way: actually apply every option to a copy of the graph, rebuild it,
// and recompute Σ_p |I_p| with the engine.
func TestMitigationAfterMatchesSurgery(t *testing.T) {
	opts := AllIndirect()
	for seed := int64(0); seed < 40; seed++ {
		g := randomGraph(seed)
		for _, k := range []int{1, 3, 1000} {
			plan := g.MitigationPlan(k, opts)
			_, imp := applyPlan(g, plan).Metrics().Counts(opts)
			sum := 0
			for _, n := range imp {
				sum += n
			}
			if sum != plan.After {
				t.Fatalf("seed %d k=%d: surgery Σ|I_p| = %d, plan predicted after = %d (before %d, options %+v)",
					seed, k, sum, plan.After, plan.Before, plan.Options)
			}
		}
	}
}

// TestMitigationDeterministic pins that repeated runs produce identical
// plans (the heap tie-breaks are total).
func TestMitigationDeterministic(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		a := randomGraph(seed).MitigationPlan(5, AllIndirect())
		b := randomGraph(seed).MitigationPlan(5, AllIndirect())
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: plans differ:\n%+v\n%+v", seed, a, b)
		}
	}
}

func TestMitigationDegenerate(t *testing.T) {
	g := mitigationFixture()
	if p := g.MitigationPlan(0, AllIndirect()); len(p.Options) != 0 || p.Before != 0 {
		t.Fatalf("k=0 plan should be empty, got %+v", p)
	}
	empty := NewGraph(nil, nil)
	if p := empty.MitigationPlan(5, AllIndirect()); len(p.Options) != 0 {
		t.Fatalf("empty-graph plan should have no options, got %+v", p)
	}
}

// TestPropertyMitigationGainsMatchOracle holds the planner's once/twice
// coverage counts against the union-of-others oracle (export_test.go) at
// every step of a plan run to exhaustion: every seeded candidate's gain,
// every accepted pick's gain, and the gain every surviving sibling is
// re-pushed with. The random graphs run as generated and with two-node
// private infrastructure added, so chains with their own union closure
// are covered too.
func TestPropertyMitigationGainsMatchOracle(t *testing.T) {
	traversals := []TraversalOpts{
		AllIndirect(),
		DirectOnly(),
		{ViaProviders: []Service{DNS}},
		{ViaProviders: []Service{CDN, CA}},
	}
	check := func(label string, g *Graph, opts TraversalOpts) {
		t.Helper()
		p := g.newPlanner(g.arrangements(), opts, len(g.Sites))
		p.seed()
		for _, c := range p.heap {
			if want := p.gainOf(c.chain); c.gain != want {
				t.Fatalf("%s: seeded chain %d gain %d, oracle %d", label, c.chain, c.gain, want)
			}
		}
		reduction := make([]int, len(p.once)*64)
		for {
			c, ok := p.next()
			if !ok {
				break
			}
			if want := p.gainOf(c.chain); c.gain != want {
				t.Fatalf("%s: picked chain %d gain %d, oracle %d", label, c.chain, c.gain, want)
			}
			p.accept(c.chain, reduction)
			si := p.chains[c.chain].site
			for i := p.off[si]; i < p.off[si+1]; i++ {
				sib := p.chains[i]
				if !sib.mitigable || sib.removed {
					continue
				}
				j := slices.IndexFunc(p.heap, func(e mitigationCand) bool { return e.chain == i && e.stamp == sib.stamp })
				if j < 0 {
					t.Fatalf("%s: sibling chain %d of pick %d has no current heap entry", label, i, c.chain)
				}
				if want := p.gainOf(i); p.heap[j].gain != want {
					t.Fatalf("%s: re-pushed chain %d gain %d, oracle %d", label, i, p.heap[j].gain, want)
				}
			}
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		g := randomGraph(seed)
		multi := withTwoNodeInfra(g)
		for _, opts := range traversals {
			check(fmt.Sprintf("seed %d via %v", seed, opts.ViaProviders), g, opts)
			check(fmt.Sprintf("seed %d two-node infra via %v", seed, opts.ViaProviders), multi, opts)
		}
	}
}

// withTwoNodeInfra copies g, giving every third site a CDN served by two
// of its own infrastructure nodes.
func withTwoNodeInfra(g *Graph) *Graph {
	names := g.ProviderNames()
	sites := make([]*Site, len(g.Sites))
	for i, s := range g.Sites {
		cp := *s
		if i%3 == 0 && len(names) > 1 {
			cp.PrivateInfra = map[Service][]string{CDN: {names[i%len(names)], names[(i+1)%len(names)]}}
		}
		sites[i] = &cp
	}
	var providers []*Provider
	for _, p := range g.Providers {
		providers = append(providers, p)
	}
	return NewGraph(sites, providers)
}

// TestMitigationPlanAllocs guards the planner's allocation shape: a plan
// allocates per plan, never per candidate, per closure or per heap entry,
// so doubling and quadrupling a graph's sites (and with them its
// candidates) over one provider universe adds no allocation.
func TestMitigationPlanAllocs(t *testing.T) {
	base := randomGraph(11)
	allocs := func(copies int) (float64, int) {
		var sites []*Site
		for c := 0; c < copies; c++ {
			for _, s := range base.Sites {
				cp := *s
				cp.Name = s.Name + "-" + itoa(c)
				cp.Rank = len(sites) + 1
				sites = append(sites, &cp)
			}
		}
		var providers []*Provider
		for _, p := range base.Providers {
			providers = append(providers, p)
		}
		g := NewGraph(sites, providers)
		plan := g.MitigationPlan(5, AllIndirect())
		if len(plan.Options) != 5 {
			t.Fatalf("%d copies: %d options, want 5", copies, len(plan.Options))
		}
		n := testing.AllocsPerRun(20, func() { g.MitigationPlan(5, AllIndirect()) })
		// Once a simulation has built the site rows, the planner reads them.
		g.OutageSim(AllIndirect())
		if withRows := testing.AllocsPerRun(20, func() { g.MitigationPlan(5, AllIndirect()) }); withRows > n {
			t.Errorf("%d copies: %v allocs per plan over the simulator's rows, %v without", copies, withRows, n)
		}
		return n, plan.Candidates
	}
	one, cands := allocs(1)
	for _, copies := range []int{2, 4} {
		if n, c := allocs(copies); n > one {
			t.Errorf("%d candidates: %v allocs per plan, %d candidates: %v; want no growth", cands, one, c, n)
		}
	}
}

// TestMitigationPlanOverSimRows holds a plan over the simulator's resolved
// site rows to the plan that resolves every site itself, on random graphs
// with chains and two-node private infrastructure, for every traversal.
func TestMitigationPlanOverSimRows(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		g := withTwoNodeInfra(randomChainGraph(seed, 0))
		var before []*MitigationPlan
		for _, opts := range siteSetViews {
			before = append(before, g.MitigationPlan(8, opts))
		}
		if g.sim.Load() != nil {
			t.Fatal("a plan built the simulator's tables")
		}
		g.OutageSim(DirectOnly())
		for i, opts := range siteSetViews {
			if after := g.MitigationPlan(8, opts); !reflect.DeepEqual(after, before[i]) {
				t.Fatalf("seed %d via %v: plan over the simulator's rows\n%+v\nwant\n%+v", seed, opts.ViaProviders, after, before[i])
			}
		}
		// Plans racing the tables' first build agree too.
		fresh := withTwoNodeInfra(randomChainGraph(seed, 0))
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if w == 0 {
					fresh.OutageSim(AllIndirect())
					return
				}
				if got := fresh.MitigationPlan(8, siteSetViews[0]); !reflect.DeepEqual(got, before[0]) {
					t.Errorf("seed %d: a plan racing the simulator's build differs", seed)
				}
			}()
		}
		wg.Wait()
	}
}
