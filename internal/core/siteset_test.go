package core

import (
	"maps"
	"math/rand"
	"slices"
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
// differs from AllIndirect and the chain dedup is exercised. Filler sites
// pad it to pad sites (see padFiller).
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
	sites, providers := padFiller(g.Sites, providers, pad)
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

// padFiller pads sites with sites whose one arrangement is a single-third
// DNS provider, "filler", until there are n, and adds filler to providers
// when it does. The other providers keep the small sets they had, which
// are held as sorted ids once the site bitset has more words than they
// have members, while filler's set is a bitset.
func padFiller(sites []*Site, providers []*Provider, n int) ([]*Site, []*Provider) {
	sites = slices.Clone(sites)
	if len(sites) >= n {
		return sites, providers
	}
	for i := 0; len(sites) < n; i++ {
		sites = append(sites, &Site{Name: "pad" + itoa(i), Rank: len(sites) + 1, Deps: map[Service]Dep{
			DNS: {Class: ClassSingleThird, Providers: []string{"filler"}},
		}})
	}
	return sites, append(slices.Clone(providers), &Provider{Name: "filler", Service: DNS})
}

// setForms records the form of every non-empty site set g's engine holds
// under opts, keyed by view index, metric and name: true when it is a
// bitset, false when it is sorted ids.
func setForms(g *Graph, view int, opts TraversalOpts, into map[string]bool) {
	e := g.Metrics()
	ent := e.entry(opts)
	for metric, st := range []*propState{ent.stateConc, ent.stateImp} {
		for _, name := range e.names {
			if set := e.setOf(st, name); set.n > 0 {
				into[itoa(view)+"/"+itoa(metric)+"/"+name] = set.dense != nil
			}
		}
	}
}

// siteSetsAgree holds ConcentrationSet/ImpactSet to the recursive oracle's
// membership for every name of g's engine universe (plus one it never saw)
// under every view, returning the number of (name, view) pairs compared
// and the form of every non-empty set (see setForms).
func siteSetsAgree(t *testing.T, label string, g *Graph) (int, map[string]bool, bool) {
	t.Helper()
	pairs, forms := 0, map[string]bool{}
	for view, opts := range siteSetViews {
		e := g.Metrics()
		e.Counts(opts) // fills the universe
		for _, name := range append(e.names[:len(e.names):len(e.names)], "never-seen") {
			if got, want := g.ConcentrationSet(name, opts), g.concentrationSetRecursive(name, opts); !maps.Equal(got, want) {
				t.Logf("%s via %v: ConcentrationSet(%s) = %v, oracle %v", label, opts.ViaProviders, name, got, want)
				return pairs, nil, false
			}
			if got, want := g.ImpactSet(name, opts), g.impactSetRecursive(name, opts); !maps.Equal(got, want) {
				t.Logf("%s via %v: ImpactSet(%s) = %v, oracle %v", label, opts.ViaProviders, name, got, want)
				return pairs, nil, false
			}
			pairs++
		}
		setForms(g, view, opts, forms)
	}
	return pairs, forms, true
}

// narrowSets counts the retained dense component sets of g's engine whose
// bitset is narrower than its site-id space — components a delta left
// clean while it appended site ids past a word boundary.
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
			for _, set := range st.sets {
				if set.dense != nil && len(set.dense) < words {
					n++
				}
			}
		}
	}
	return n
}

// TestSiteSetsMatchRecursive: the site sets the engine holds, as sorted ids
// or as bitsets, have exactly the recursive formulas' membership, for every
// provider and view, on random graphs with chains and again along random
// delta streams (site adds and removes, swaps, provider edits). The stream
// graphs are padded to a few bitset words, so both forms occur and deltas
// move sets across the threshold in both directions; they end on a word
// boundary, so the first added site leaves clean dense sets narrower than
// the grown site-id space.
func TestSiteSetsMatchRecursive(t *testing.T) {
	const seeds = 200
	var pairs, dense, sparse, toDense, toSparse, narrow int
	tally := func(prev, forms map[string]bool) {
		for k, d := range forms {
			if d {
				dense++
			} else {
				sparse++
			}
			if p, ok := prev[k]; ok && p != d {
				if d {
					toDense++
				} else {
					toSparse++
				}
			}
		}
	}
	for seed := int64(1); seed <= seeds; seed++ {
		n, _, ok := siteSetsAgree(t, "seed "+itoa(int(seed)), randomChainGraph(seed, 0))
		pairs += n
		if !ok {
			t.Fatalf("seed %d: site sets diverged from the oracle", seed)
		}

		cur := randomChainGraph(seed, 64*int(2+seed%3))
		rng := rand.New(rand.NewSource(seed))
		var prev map[string]bool
		for step := 0; ; step++ {
			// Querying every view first leaves each one cached for Apply to
			// carry.
			label := "seed " + itoa(int(seed)) + " step " + itoa(step)
			n, forms, ok := siteSetsAgree(t, label, cur)
			pairs += n
			if !ok {
				t.Fatalf("%s: site sets diverged from the oracle", label)
			}
			tally(prev, forms)
			prev = forms
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
	t.Logf("%d (provider, view) pairs agree; %d dense and %d sparse sets, %d became dense and %d sparse across a delta; %d narrow bitsets walked",
		pairs, dense, sparse, toDense, toSparse, narrow)
	if dense == 0 || sparse == 0 || toDense == 0 || toSparse == 0 {
		t.Fatal("a set form or a crossing of the threshold went unexercised")
	}
	if narrow == 0 {
		t.Fatal("no delta left a bitset narrower than the site-id space; the width guard went unexercised")
	}
}
