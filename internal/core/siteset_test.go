package core

import (
	"maps"
	"math/rand"
	"testing"
)

// siteSetViews are the traversal views the site-set property covers.
var siteSetViews = []TraversalOpts{
	DirectOnly(),
	AllIndirect(),
	AllImplicit(),
	{ViaProviders: []Service{CA}},
	{ViaProviders: []Service{CDN}},
}

// randomChainGraph extends randomGraph(seed) with resource chains: a few
// vendor nodes riding random providers, and chain edges from random sites
// (sometimes the same vendor twice at different depths), so AllImplicit
// differs from AllIndirect and the chain dedup is exercised. Padding sites
// copy existing arrangements up to pad sites, so a delta stream that adds
// sites soon crosses a 64-site bitset word.
func randomChainGraph(seed int64, pad int) *Graph {
	g := randomGraph(seed)
	rng := rand.New(rand.NewSource(seed ^ 0xc4a1))
	providers := providerList(g)
	provNames := make([]string, 0, len(providers))
	for _, p := range providers {
		provNames = append(provNames, p.Name)
	}
	sortStrings(provNames)
	var vendors []string
	for i := 0; i < 1+rng.Intn(3); i++ {
		name := "V" + itoa(i)
		vendors = append(vendors, name)
		class := ClassSingleThird
		if rng.Intn(3) == 0 {
			class = ClassMultiThird
		}
		providers = append(providers, &Provider{Name: name, Service: Resource, Deps: map[Service]Dep{
			Service(rng.Intn(2)): {Class: class, Providers: []string{provNames[rng.Intn(len(provNames))]}},
		}})
	}
	sites := append([]*Site(nil), g.Sites...)
	for i := 0; len(sites) < pad; i++ {
		src := g.Sites[i%len(g.Sites)]
		sites = append(sites, &Site{Name: "pad" + itoa(i), Rank: len(sites) + 1, Deps: maps.Clone(src.Deps), PrivateInfra: src.PrivateInfra})
	}
	for _, s := range sites {
		if rng.Intn(3) != 0 {
			continue
		}
		for d := 1; d <= 1+rng.Intn(3); d++ {
			s.Chains = append(s.Chains, ChainEdge{Provider: vendors[rng.Intn(len(vendors))], Depth: d})
		}
	}
	return NewGraph(sites, providers)
}

// siteSetsAgree holds ConcentrationSet/ImpactSet to the recursive oracle's
// membership for every name of g's engine universe (plus one it never saw)
// under every view, returning the number of (name, view) pairs compared.
func siteSetsAgree(t *testing.T, label string, g *Graph) (int, bool) {
	t.Helper()
	pairs := 0
	for _, opts := range siteSetViews {
		e := g.Metrics()
		e.Counts(opts) // fills the universe
		for _, name := range append(e.names[:len(e.names):len(e.names)], "never-seen") {
			if got, want := g.ConcentrationSet(name, opts), g.concentrationSetRecursive(name, opts); !maps.Equal(got, want) {
				t.Logf("%s via %v: ConcentrationSet(%s) = %v, oracle %v", label, opts.ViaProviders, name, got, want)
				return pairs, false
			}
			if got, want := g.ImpactSet(name, opts), g.impactSetRecursive(name, opts); !maps.Equal(got, want) {
				t.Logf("%s via %v: ImpactSet(%s) = %v, oracle %v", label, opts.ViaProviders, name, got, want)
				return pairs, false
			}
			pairs++
		}
	}
	return pairs, true
}

// narrowSets counts the retained component bitsets of g's engine that are
// narrower than its site-id space — components a delta left clean while it
// appended site ids past a word boundary.
func narrowSets(g *Graph) int {
	e := g.Metrics()
	words := (e.nSiteIDs + 63) / 64
	n := 0
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ent := range e.cache {
		if !ent.ready.Load() {
			continue
		}
		for _, st := range []*propState{ent.stateConc, ent.stateImp} {
			if st == nil {
				continue
			}
			for _, bs := range st.sets {
				if len(bs) < words {
					n++
				}
			}
		}
	}
	return n
}

// TestSiteSetsMatchRecursive: the site sets the engine reads off its
// component bitsets have exactly the recursive formulas' membership, for
// every provider and view, on random graphs with chains and again along
// random delta streams (site adds and removes, swaps, provider edits) whose
// carried engines hold bitsets narrower than the grown site-id space.
func TestSiteSetsMatchRecursive(t *testing.T) {
	const seeds = 200
	pairs, narrow := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		n, ok := siteSetsAgree(t, "seed "+itoa(int(seed)), randomChainGraph(seed, 0))
		pairs += n
		if !ok {
			t.Fatalf("seed %d: site sets diverged from the oracle", seed)
		}

		cur := randomChainGraph(seed, 60)
		rng := rand.New(rand.NewSource(seed))
		for step := 0; ; step++ {
			// Querying every view first leaves each one cached for Apply to
			// carry.
			label := "seed " + itoa(int(seed)) + " step " + itoa(step)
			n, ok := siteSetsAgree(t, label, cur)
			pairs += n
			if !ok {
				t.Fatalf("%s: site sets diverged from the oracle", label)
			}
			if step == 8 {
				break
			}
			ng, _, err := cur.Apply(randomDelta(rng, cur, step))
			if err != nil {
				t.Fatalf("%s: apply: %v", label, err)
			}
			narrow += narrowSets(ng)
			cur = ng
		}
	}
	if narrow == 0 {
		t.Fatal("no delta left a bitset narrower than the site-id space; the width guard went unexercised")
	}
	t.Logf("%d (provider, view) pairs agree; %d narrow bitsets walked", pairs, narrow)
}
