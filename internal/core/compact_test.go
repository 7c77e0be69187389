package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomGraphSpec generates a random but well-formed graph: sites with
// random per-service arrangements (including absent services, private
// infrastructure and chain edges) and providers with random inter-service
// dependencies, including cycles. Returns equivalent pointer and compact
// representations built from the same draw.
func randomGraphSpec(t *testing.T, rng *rand.Rand, nSites, nProviders int) (*Graph, *CompactGraph) {
	t.Helper()
	provNames := make([]string, nProviders)
	for i := range provNames {
		provNames[i] = fmt.Sprintf("prov-%02d", i)
	}
	privNames := []string{"own-cdn-a", "own-cdn-b", "own-pki-a"}
	vendorNames := []string{"vendor-x.net", "vendor-y.net", "vendor-z.net"}
	classes := []DepClass{ClassNone, ClassPrivate, ClassSingleThird, ClassMultiThird, ClassPrivatePlusThird, ClassUnknown}

	pick := func(pool []string, n int) []string {
		out := make([]string, 0, n)
		for len(out) < n {
			c := pool[rng.Intn(len(pool))]
			dup := false
			for _, o := range out {
				if o == c {
					dup = true
				}
			}
			if !dup {
				out = append(out, c)
			}
		}
		return out
	}

	b := NewCompactBuilder()
	sites := make([]*Site, nSites)
	for i := range sites {
		name := fmt.Sprintf("site-%03d.com", i)
		s := &Site{Name: name, Rank: i + 1, Deps: make(map[Service]Dep)}
		b.AddSite(name, i+1)
		for _, svc := range Services {
			if svc != DNS && rng.Intn(3) == 0 {
				continue // service absent (DNS is always measured)
			}
			cls := classes[rng.Intn(len(classes))]
			var provs []string
			if cls.UsesThird() {
				n := 1
				if cls == ClassMultiThird || cls == ClassPrivatePlusThird {
					n = 2
				}
				provs = pick(provNames, n)
			}
			s.Deps[svc] = Dep{Class: cls, Providers: provs}
			b.SetDep(svc, cls, provs)
		}
		if rng.Intn(4) == 0 {
			cand := privNames[rng.Intn(len(privNames))]
			svc := Services[rng.Intn(2)+1] // CDN or CA
			if s.PrivateInfra == nil {
				s.PrivateInfra = make(map[Service][]string)
			}
			s.PrivateInfra[svc] = append(s.PrivateInfra[svc], cand)
			b.AddPrivate(svc, cand)
		}
		if rng.Intn(3) == 0 {
			for _, v := range pick(vendorNames, 1+rng.Intn(2)) {
				d := 1 + rng.Intn(3)
				s.Chains = append(s.Chains, ChainEdge{Provider: v, Depth: d})
				b.AddChain(v, d)
			}
		}
		sites[i] = s
	}

	// Providers: random service, random deps on other providers (cycles
	// allowed and likely), plus vendor nodes with their own DNS deps.
	var providers []*Provider
	for i, name := range provNames {
		p := &Provider{Name: name, Service: Service(rng.Intn(3)), Deps: make(map[Service]Dep)}
		if rng.Intn(2) == 0 {
			cls := classes[rng.Intn(len(classes))]
			var deps []string
			if cls.UsesThird() {
				deps = pick(provNames, 1+rng.Intn(2))
				if deps[0] == name && len(provNames) > 1 {
					deps[0] = provNames[(i+1)%len(provNames)]
				}
			}
			p.Deps[DNS] = Dep{Class: cls, Providers: deps}
		}
		if rng.Intn(3) == 0 {
			cls := []DepClass{ClassSingleThird, ClassMultiThird}[rng.Intn(2)]
			p.Deps[CDN] = Dep{Class: cls, Providers: pick(provNames, 1)}
		}
		providers = append(providers, p)
	}
	for _, v := range vendorNames {
		providers = append(providers, &Provider{
			Name:    v,
			Service: Resource,
			Deps:    map[Service]Dep{DNS: {Class: ClassSingleThird, Providers: pick(provNames, 1)}},
		})
	}

	return NewGraph(sites, providers), b.Build(providers)
}

// traversalVariants are the opts the report surfaces actually query.
func traversalVariants() []TraversalOpts {
	return []TraversalOpts{
		DirectOnly(),
		AllIndirect(),
		AllImplicit(),
		{ViaProviders: []Service{DNS}},
		{ViaProviders: []Service{CA}},
		{ViaProviders: []Service{CDN, CA}},
	}
}

// universeNames is the union of every name either representation can score.
func universeNames(g *Graph, cg *CompactGraph) []string {
	seen := make(map[string]bool)
	var names []string
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for name, p := range g.Providers {
		add(name)
		for _, d := range p.Deps {
			if d.Class.UsesThird() {
				for _, t := range d.Providers {
					add(t)
				}
			}
		}
	}
	for _, s := range g.Sites {
		for _, d := range s.Deps {
			if d.Class.UsesThird() {
				for _, p := range d.Providers {
					add(p)
				}
			}
		}
		for _, infra := range s.PrivateInfra {
			for _, p := range infra {
				add(p)
			}
		}
		for _, e := range s.Chains {
			add(e.Provider)
		}
	}
	add("never-seen-provider") // zero on both sides
	return names
}

// TestCompactGraphMetricsEqualRandom is the tentpole property test: on
// random graphs, the compact engine's C_p/I_p equal the recursive oracle's
// for every name under every traversal, as do site-class counts and the
// fully-inflated round trip.
func TestCompactGraphMetricsEqualRandom(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nSites := 20 + rng.Intn(60)
		nProviders := 4 + rng.Intn(10)
		g, cg := randomGraphSpec(t, rng, nSites, nProviders)

		if cg.NSites() != len(g.Sites) {
			t.Fatalf("seed %d: NSites = %d, want %d", seed, cg.NSites(), len(g.Sites))
		}
		eng := cg.Metrics()
		for _, opts := range traversalVariants() {
			for _, name := range universeNames(g, cg) {
				wantC := len(g.concentrationSetRecursive(name, opts))
				wantI := len(g.impactSetRecursive(name, opts))
				if got := eng.Concentration(name, opts); got != wantC {
					t.Fatalf("seed %d via %v: C(%s) = %d, want %d", seed, opts.ViaProviders, name, got, wantC)
				}
				if got := eng.Impact(name, opts); got != wantI {
					t.Fatalf("seed %d via %v: I(%s) = %d, want %d", seed, opts.ViaProviders, name, got, wantI)
				}
			}
		}

		// Round trip: the inflated pointer graph must match the original
		// node-for-node.
		inf := cg.Inflate()
		if len(inf.Sites) != len(g.Sites) {
			t.Fatalf("seed %d: inflate site count %d != %d", seed, len(inf.Sites), len(g.Sites))
		}
		for i, want := range g.Sites {
			got := inf.Sites[i]
			if got.Name != want.Name || got.Rank != want.Rank {
				t.Fatalf("seed %d site %d: identity mismatch %s/%d vs %s/%d",
					seed, i, got.Name, got.Rank, want.Name, want.Rank)
			}
			if !reflect.DeepEqual(got.Deps, want.Deps) {
				t.Fatalf("seed %d site %s: Deps %v != %v", seed, want.Name, got.Deps, want.Deps)
			}
			if !reflect.DeepEqual(got.PrivateInfra, want.PrivateInfra) {
				t.Fatalf("seed %d site %s: PrivateInfra %v != %v", seed, want.Name, got.PrivateInfra, want.PrivateInfra)
			}
			if !reflect.DeepEqual(got.Chains, want.Chains) {
				t.Fatalf("seed %d site %s: Chains %v != %v", seed, want.Name, got.Chains, want.Chains)
			}
		}
		if len(inf.Providers) != len(g.Providers) {
			t.Fatalf("seed %d: inflate provider count %d != %d", seed, len(inf.Providers), len(g.Providers))
		}
		for name, want := range g.Providers {
			got := inf.Providers[name]
			if got == nil || got.Service != want.Service || !reflect.DeepEqual(got.Deps, want.Deps) {
				t.Fatalf("seed %d provider %s: %+v != %+v", seed, name, got, want)
			}
		}
	}
}

// TestCompactGraphEmpty: a zero-row build must not panic anywhere.
func TestCompactGraphEmpty(t *testing.T) {
	cg := NewCompactBuilder().Build(nil)
	if cg.NSites() != 0 {
		t.Fatalf("empty graph: %d sites", cg.NSites())
	}
	if got := cg.Metrics().Concentration("anything", AllIndirect()); got != 0 {
		t.Fatalf("empty graph concentration = %d", got)
	}
	g := cg.Inflate()
	if len(g.Sites) != 0 || len(g.Providers) != 0 {
		t.Fatal("empty inflate not empty")
	}
}

// TestCompactGraphBytes: the columnar accounting must be far below the
// pointer representation's per-site footprint even before string sharing.
func TestCompactGraphBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	_, cg := randomGraphSpec(t, rng, 200, 8)
	b := cg.Bytes()
	if b == 0 {
		t.Fatal("Bytes() = 0")
	}
	perSite := float64(b) / float64(cg.NSites())
	// Each site carries a few uint32 ids + class bytes; anything beyond a
	// couple hundred bytes/site means the layout regressed to per-site
	// allocations.
	if perSite > 512 {
		t.Fatalf("bytes/site = %.1f, want <= 512", perSite)
	}
}

// TestCompactBuilderPanics: misuse fails loudly.
func TestCompactBuilderPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("SetDep before AddSite", func() {
		NewCompactBuilder().SetDep(DNS, ClassPrivate, nil)
	})
	mustPanic("AddChain before AddSite", func() {
		NewCompactBuilder().AddChain("v", 1)
	})
	mustPanic("SetDep Resource", func() {
		b := NewCompactBuilder()
		b.AddSite("a.com", 1)
		b.SetDep(Resource, ClassSingleThird, []string{"v"})
	})
	mustPanic("double Build", func() {
		b := NewCompactBuilder()
		b.Build(nil)
		b.Build(nil)
	})
}
