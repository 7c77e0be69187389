package core

import (
	"reflect"
	"testing"
)

// TestMetricsEngineMatchesSetsOnPaperGraph pins the engine to the recursive
// set formulas on the canonical paper examples, across traversal views.
func TestMetricsEngineMatchesSetsOnPaperGraph(t *testing.T) {
	g := paperGraph()
	optsList := []TraversalOpts{
		DirectOnly(), AllIndirect(),
		{ViaProviders: []Service{CA}},
		{ViaProviders: []Service{CDN}},
	}
	names := []string{
		"Dyn", "UltraDNS", "Fastly", "MaxCDN", "AWS DNS",
		"Symantec", "Verisign DNS",
	}
	for _, opts := range optsList {
		for _, name := range names {
			if got, want := g.Concentration(name, opts), len(g.concentrationSetRecursive(name, opts)); got != want {
				t.Errorf("C(%s, %v) = %d, want %d", name, opts, got, want)
			}
			if got, want := g.Impact(name, opts), len(g.impactSetRecursive(name, opts)); got != want {
				t.Errorf("I(%s, %v) = %d, want %d", name, opts, got, want)
			}
		}
	}
}

// TestMetricsEngineUnknownProvider mirrors the recursion: a name the graph
// has never seen has empty sets, so zero counts.
func TestMetricsEngineUnknownProvider(t *testing.T) {
	g := paperGraph()
	if got := g.Concentration("no-such-provider", AllIndirect()); got != 0 {
		t.Errorf("C(unknown) = %d, want 0", got)
	}
	if got := g.Impact("no-such-provider", DirectOnly()); got != 0 {
		t.Errorf("I(unknown) = %d, want 0", got)
	}
}

// TestMetricsEngineWorkersClamped: a negative worker count must not stall or
// change results — it clamps to GOMAXPROCS like the measurement pipeline.
func TestMetricsEngineWorkersClamped(t *testing.T) {
	g := paperGraph()
	e := NewMetricsEngine(g, -7)
	if got := e.Impact("Dyn", AllIndirect()); got != 2 {
		t.Errorf("I(Dyn) with negative workers = %d, want 2", got)
	}
	g2 := paperGraph()
	g2.SetMetricsWorkers(-3)
	if got := g2.Impact("Dyn", AllIndirect()); got != 2 {
		t.Errorf("I(Dyn) via SetMetricsWorkers(-3) = %d, want 2", got)
	}
}

// TestMetricsEngineCycleChain drives a deep critical chain (cycle-free) and
// a terminal 2-cycle through the iterative SCC path: every chain member's
// impact must include the one site hanging off the chain head.
func TestMetricsEngineCycleChain(t *testing.T) {
	const depth = 5000
	providers := make([]*Provider, 0, depth+2)
	for i := 0; i < depth; i++ {
		p := &Provider{Name: "L" + itoa(i), Service: Service(i % 3), Deps: map[Service]Dep{}}
		if i > 0 {
			p.Deps[DNS] = Dep{Class: ClassSingleThird, Providers: []string{"L" + itoa(i-1)}}
		}
		providers = append(providers, p)
	}
	// Terminal 2-cycle feeding the chain root.
	providers[0].Deps[DNS] = Dep{Class: ClassSingleThird, Providers: []string{"X"}}
	providers = append(providers,
		&Provider{Name: "X", Service: DNS, Deps: map[Service]Dep{
			CDN: {Class: ClassSingleThird, Providers: []string{"Y"}},
		}},
		&Provider{Name: "Y", Service: CDN, Deps: map[Service]Dep{
			DNS: {Class: ClassSingleThird, Providers: []string{"X"}},
		}},
	)
	sites := []*Site{{Name: "w.com", Rank: 1, Deps: map[Service]Dep{
		CDN: {Class: ClassSingleThird, Providers: []string{"L" + itoa(depth-1)}},
	}}}
	g := NewGraph(sites, providers)
	for _, name := range []string{"L0", "L" + itoa(depth/2), "X", "Y"} {
		if got := g.Impact(name, AllIndirect()); got != 1 {
			t.Errorf("I(%s) = %d, want 1", name, got)
		}
	}
	if got := g.Impact("L"+itoa(depth-1), DirectOnly()); got != 1 {
		t.Errorf("direct I(chain head) = %d, want 1", got)
	}
}

// TestMetricsEngineCountsShared verifies the cache: two Counts calls for the
// same traversal return the same maps, and different traversals differ.
func TestMetricsEngineCountsShared(t *testing.T) {
	g := paperGraph()
	c1, i1 := g.Metrics().Counts(AllIndirect())
	c2, i2 := g.Metrics().Counts(AllIndirect())
	if &c1 == nil || !sameMap(c1, c2) || !sameMap(i1, i2) {
		t.Error("repeated Counts did not return the cached maps")
	}
	cd, _ := g.Metrics().Counts(DirectOnly())
	if cd["Dyn"] != 3 || c1["Dyn"] != 4 {
		t.Errorf("direct C(Dyn) = %d, indirect = %d; want 3 and 4", cd["Dyn"], c1["Dyn"])
	}
}

func sameMap(a, b map[string]int) bool {
	return len(a) == len(b) && reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// TestTopProvidersBatchedEqualsRecursive checks the full ranking path on the
// paper graph (byte-identical slices, both ranking modes).
func TestTopProvidersBatchedEqualsRecursive(t *testing.T) {
	g := paperGraph()
	for _, svc := range Services {
		for _, byImpact := range []bool{false, true} {
			batch := g.TopProviders(svc, AllIndirect(), byImpact, 0)
			ref := g.topProvidersRecursive(svc, AllIndirect(), byImpact, 0)
			if !reflect.DeepEqual(batch, ref) {
				t.Errorf("svc %s byImpact %v: batch %+v != ref %+v", svc, byImpact, batch, ref)
			}
		}
	}
}

// TestMetricsStrategiesAgree holds the batch engine to the reference
// recursive set walks over a synthetic snapshot-shaped graph: identical
// counts for every name under every traversal view, through per-name
// queries (issued before Counts, against a cold engine) and the complete
// Counts maps.
func TestMetricsStrategiesAgree(t *testing.T) {
	g := metricsBenchGraph(2000, 300)
	optsList := []TraversalOpts{
		DirectOnly(), AllIndirect(), {ViaProviders: []Service{DNS}},
	}
	for _, opts := range optsList {
		e := NewMetricsEngine(g, 0)
		for _, name := range []string{"prov0", "prov7", "prov299", "absent"} {
			if got, want := e.Concentration(name, opts), len(g.concentrationSetRecursive(name, opts)); got != want {
				t.Errorf("opts %v: C(%s) = %d, reference walk = %d", opts, name, got, want)
			}
			if got, want := e.Impact(name, opts), len(g.impactSetRecursive(name, opts)); got != want {
				t.Errorf("opts %v: I(%s) = %d, reference walk = %d", opts, name, got, want)
			}
		}
		conc, imp := e.Counts(opts)
		if len(conc) != len(e.names) || len(imp) != len(e.names) {
			t.Errorf("opts %v: Counts has %d/%d names, universe %d", opts, len(conc), len(imp), len(e.names))
		}
		for _, name := range e.names {
			if got, want := conc[name], len(g.concentrationSetRecursive(name, opts)); got != want {
				t.Errorf("opts %v: Counts C(%s) = %d, reference walk = %d", opts, name, got, want)
			}
			if got, want := imp[name], len(g.impactSetRecursive(name, opts)); got != want {
				t.Errorf("opts %v: Counts I(%s) = %d, reference walk = %d", opts, name, got, want)
			}
		}
	}
}

// ---------------------------------------------------------------- benchmark

// metricsBenchGraph builds a deterministic graph shaped like the measured
// snapshots: nProviders providers with a skewed popularity distribution,
// provider→provider chains, and nSites sites with 1–2 dependencies each.
func metricsBenchGraph(nSites, nProviders int) *Graph {
	providers := make([]*Provider, 0, nProviders)
	for i := 0; i < nProviders; i++ {
		p := &Provider{Name: "prov" + itoa(i), Service: Service(i % 3), Deps: map[Service]Dep{}}
		// Every provider rides another one closer to the head: a dependency
		// tree of depth log2(nProviders), the multi-hop shape the Dyn
		// incident chain and the follow-up chain-of-trust studies measure.
		if i > 0 {
			p.Deps[DNS] = Dep{Class: ClassSingleThird, Providers: []string{"prov" + itoa(i/2)}}
		}
		providers = append(providers, p)
	}
	sites := make([]*Site, 0, nSites)
	for i := 0; i < nSites; i++ {
		// Zipf-ish assignment: low provider ids get most sites.
		p1 := "prov" + itoa(i%((i%97)+3))
		s := &Site{Name: "site" + itoa(i), Rank: i + 1, Deps: map[Service]Dep{
			DNS: {Class: ClassSingleThird, Providers: []string{p1}},
		}}
		if i%2 == 0 {
			p2 := "prov" + itoa((i*7)%nProviders)
			s.Deps[CDN] = Dep{Class: ClassMultiThird, Providers: []string{p2}}
		}
		sites = append(sites, s)
	}
	return NewGraph(sites, providers)
}

// BenchmarkTopProvidersBatch100K proves the batched engine's win at the
// paper's full scale: 100K sites, 1000 providers, full transitive traversal.
// The "batch" arm prices one cold engine pass over every provider; the
// "recursive" arm is the seed shape — one recursive walk per provider.
func BenchmarkTopProvidersBatch100K(b *testing.B) {
	g := metricsBenchGraph(100000, 1000)
	opts := AllIndirect()
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := NewMetricsEngine(g, 0)
			conc, _ := e.Counts(opts)
			if conc["prov0"] == 0 {
				b.Fatal("empty counts")
			}
		}
	})
	b.Run("recursive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, svc := range Services {
				if stats := g.topProvidersRecursive(svc, opts, false, 0); len(stats) == 0 {
					b.Fatal("no providers")
				}
			}
		}
	})
}
