package core_test

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"testing"

	"depscope/internal/core"
)

// padSites adds sites on one filler DNS provider until g has n sites: the
// closures of g's own providers keep their sizes and, once the site
// bitset outgrows them, are held as sorted ids; the filler's is a bitset.
func padSites(g *core.Graph, n int) *core.Graph {
	sites := append([]*core.Site(nil), g.Sites...)
	for i := 0; len(sites) < n; i++ {
		sites = append(sites, &core.Site{Name: fmt.Sprintf("pad%d.example", i), Rank: len(sites) + 1, Deps: map[core.Service]core.Dep{
			core.DNS: {Class: core.ClassSingleThird, Providers: []string{"filler.example"}},
		}})
	}
	var names []string
	for n := range g.Providers {
		names = append(names, n)
	}
	sort.Strings(names)
	providers := []*core.Provider{{Name: "filler.example", Service: core.DNS}}
	for _, n := range names {
		providers = append(providers, g.Providers[n])
	}
	return core.NewGraph(sites, providers)
}

// TestClosureUnionMatchesRunCounts holds the closure form of the simulator
// to the cascade it replaces in sweeps: over random graphs, with and
// without chain vendors and padded past one bitset word, under every
// traversal at severity 1 and 0.5, with and without joint failures, the
// union counts of any set of failure units (singletons, multi-member
// groups, and subsets of singletons as a recovery checkpoint takes them)
// equal RunCounts over the units' provider ids. A single provider's closure
// at full severity holds exactly its I_p as down sites and its C_p as
// affected sites.
func TestClosureUnionMatchesRunCounts(t *testing.T) {
	var denseSets, sparseSets int
	for seed := int64(1); seed <= 30; seed++ {
		base := core.RandomGraph(seed)
		for _, g := range []*core.Graph{base, withChains(base, seed), padSites(withChains(base, seed), 300)} {
			d, s := checkClosures(t, fmt.Sprintf("seed %d, %d sites", seed, len(g.Sites)), g, seed)
			denseSets += d
			sparseSets += s
		}
	}
	t.Logf("%d dense and %d sparse non-empty closure sets", denseSets, sparseSets)
	if denseSets == 0 || sparseSets == 0 {
		t.Fatalf("%d dense and %d sparse non-empty closure sets, want both forms", denseSets, sparseSets)
	}
}

// checkClosures runs the closure checks on g and counts the non-empty
// closure sets held in each form.
func checkClosures(t *testing.T, label string, g *core.Graph, seed int64) (denseSets, sparseSets int) {
	t.Helper()
	names := g.ProviderNames()
	if len(names) == 0 {
		return 0, 0
	}
	rng := rand.New(rand.NewSource(seed))
	for _, opts := range allTraversals {
		sim := g.OutageSim(opts)
		ids := make([]int32, len(names))
		for i, n := range names {
			ids[i], _ = sim.ProviderID(n)
		}
		for _, o := range outageModes {
			where := fmt.Sprintf("%s via %v %+v", label, opts.ViaProviders, o)
			var sc, oracle core.SimScratch
			single := make([]core.Closure, len(ids))
			for i, id := range ids {
				single[i] = sim.Closure([]int32{id}, o, &sc)
				down, affected := single[i].Sites()
				dd, ad := single[i].Forms()
				for _, set := range []struct {
					n     int
					dense bool
				}{{len(down), dd}, {len(affected), ad}} {
					switch {
					case set.n == 0:
					case set.dense:
						denseSets++
					default:
						sparseSets++
					}
				}
				if o != (core.OutageOpts{}) {
					continue
				}
				if got, want := siteNames(g, down), g.ImpactSet(names[i], opts); !maps.Equal(got, want) {
					t.Fatalf("%s: closure of %s takes down %v, I_p is %v", where, names[i], got, want)
				}
				if got, want := siteNames(g, affected), g.ConcentrationSet(names[i], opts); !maps.Equal(got, want) {
					t.Fatalf("%s: closure of %s affects %v, C_p is %v", where, names[i], got, want)
				}
			}
			for r := 0; r < 20; r++ {
				// Units of one to four providers; any of them may fire.
				var fired []*core.Closure
				var targets, members []int32
				var memberCl []*core.Closure
				for u := rng.Intn(5); u > 0; u-- {
					var unit []int32
					for k := 1 + rng.Intn(4); k > 0; k-- {
						m := rng.Intn(len(ids))
						unit = append(unit, ids[m])
						// A recovery checkpoint keeps a random subset of the
						// failed candidates down.
						if rng.Intn(2) == 0 {
							members = append(members, ids[m])
							memberCl = append(memberCl, &single[m])
						}
					}
					cl := sim.Closure(unit, o, &sc)
					fired = append(fired, &cl)
					targets = append(targets, unit...)
				}
				check := func(kind string, cs []*core.Closure, targets []int32) {
					gotDown, gotDeg := sim.UnionCounts(cs, o, &sc)
					wantDown, wantDeg := sim.RunCounts(targets, o, &oracle)
					if gotDown != wantDown || gotDeg != wantDeg {
						t.Fatalf("%s: %s %v: union counts (%d, %d), RunCounts (%d, %d)",
							where, kind, targets, gotDown, gotDeg, wantDown, wantDeg)
					}
				}
				check("groups", fired, targets)
				check("candidates", memberCl, members)
			}
		}
	}
	return denseSets, sparseSets
}

func siteNames(g *core.Graph, idx []int32) map[string]bool {
	out := make(map[string]bool, len(idx))
	for _, i := range idx {
		out[g.Sites[i].Name] = true
	}
	return out
}

// TestClosureJointRepair holds the repair of a union under joint failures
// to the cascade on a graph built by hand, where each outage exhausts one
// kind of redundancy that no single failure unit exhausts:
//   - a site's two DNS providers fail in two units;
//   - a CDN's two DNS providers fail in two units, so the CDN goes down and
//     takes down the site that depends on it critically;
//   - one unit fails the only provider of a multi-third arrangement that
//     names it twice.
//
// Without joint failures each outage only degrades its site.
func TestClosureJointRepair(t *testing.T) {
	dns := func(cls core.DepClass, provs ...string) map[core.Service]core.Dep {
		return map[core.Service]core.Dep{core.DNS: {Class: cls, Providers: provs}}
	}
	g := core.NewGraph([]*core.Site{
		{Name: "redundant.example", Rank: 1, Deps: dns(core.ClassMultiThird, "a.example", "b.example")},
		{Name: "cdn-user.example", Rank: 2, Deps: map[core.Service]core.Dep{
			core.CDN: {Class: core.ClassSingleThird, Providers: []string{"cdn.example"}},
		}},
		{Name: "twice.example", Rank: 3, Deps: dns(core.ClassMultiThird, "e.example", "e.example")},
		{Name: "bystander.example", Rank: 4, Deps: dns(core.ClassSingleThird, "f.example")},
	}, []*core.Provider{
		{Name: "cdn.example", Service: core.CDN, Deps: dns(core.ClassMultiThird, "c.example", "d.example")},
	})
	sim := g.OutageSim(core.AllIndirect())
	cases := []struct {
		name  string
		units [][]string
	}{
		{"site redundancy", [][]string{{"a.example"}, {"b.example"}}},
		{"provider redundancy", [][]string{{"c.example"}, {"d.example"}}},
		{"provider named twice", [][]string{{"e.example"}}},
	}
	for _, c := range cases {
		for _, o := range []core.OutageOpts{{}, {JointFailures: true}} {
			var sc, oracle core.SimScratch
			var cs []*core.Closure
			var targets []int32
			for _, unit := range c.units {
				var ids []int32
				for _, n := range unit {
					id, ok := sim.ProviderID(n)
					if !ok {
						t.Fatalf("%s: no provider %s", c.name, n)
					}
					ids = append(ids, id)
				}
				cl := sim.Closure(ids, o, &sc)
				cs = append(cs, &cl)
				targets = append(targets, ids...)
			}
			wantDown, wantDeg := 0, 1
			if o.JointFailures {
				wantDown, wantDeg = 1, 0
			}
			down, deg := sim.UnionCounts(cs, o, &sc)
			oDown, oDeg := sim.RunCounts(targets, o, &oracle)
			if down != wantDown || deg != wantDeg || oDown != wantDown || oDeg != wantDeg {
				t.Errorf("%s %+v: union counts (%d, %d), RunCounts (%d, %d), want (%d, %d)",
					c.name, o, down, deg, oDown, oDeg, wantDown, wantDeg)
			}
		}
	}
}
