package core

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

// itoa names the generated nodes of the test graphs.
func itoa(v int) string { return strconv.Itoa(v) }

// randomGraph builds a random but structurally valid dependency graph:
// sites over three services with arbitrary classes, providers with random
// inter-service dependencies (possibly cyclic), and occasional private
// infrastructure nodes so the hidden-dependency path is exercised too.
func randomGraph(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	nProviders := 3 + rng.Intn(10)
	providerNames := make([]string, nProviders)
	var providers []*Provider
	for i := range providerNames {
		providerNames[i] = "P" + itoa(i)
	}
	for i, name := range providerNames {
		p := &Provider{
			Name:    name,
			Service: Service(rng.Intn(3)),
			Deps:    map[Service]Dep{},
		}
		if rng.Intn(3) == 0 && nProviders > 1 {
			// Depend on another provider (cycles allowed).
			other := providerNames[rng.Intn(nProviders)]
			if other != name {
				class := ClassSingleThird
				if rng.Intn(3) == 0 {
					class = ClassMultiThird
				}
				p.Deps[Service(rng.Intn(3))] = Dep{Class: class, Providers: []string{other}}
			}
		}
		providers = append(providers, p)
		_ = i
	}
	nSites := 5 + rng.Intn(40)
	var sites []*Site
	classes := []DepClass{ClassPrivate, ClassSingleThird, ClassMultiThird, ClassPrivatePlusThird, ClassUnknown}
	for i := 0; i < nSites; i++ {
		s := &Site{Name: "s" + itoa(i), Rank: i + 1, Deps: map[Service]Dep{}}
		for _, svc := range Services {
			if rng.Intn(2) == 0 {
				continue
			}
			class := classes[rng.Intn(len(classes))]
			var deps []string
			if class.UsesThird() {
				deps = []string{providerNames[rng.Intn(nProviders)]}
				if class == ClassMultiThird && nProviders > 1 {
					second := providerNames[rng.Intn(nProviders)]
					if second != deps[0] {
						deps = append(deps, second)
					}
				}
			}
			s.Deps[svc] = Dep{Class: class, Providers: deps}
		}
		if rng.Intn(4) == 0 {
			svc := Service(rng.Intn(3))
			s.PrivateInfra = map[Service][]string{
				svc: {providerNames[rng.Intn(nProviders)]},
			}
		}
		sites = append(sites, s)
	}
	return NewGraph(sites, providers)
}

// Property: for every provider and traversal, ImpactSet ⊆ ConcentrationSet
// (critical dependency implies dependency).
func TestPropertyImpactSubsetOfConcentration(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed)
		for name := range g.Providers {
			for _, opts := range []TraversalOpts{DirectOnly(), AllIndirect(), {ViaProviders: []Service{CA}}} {
				imp := g.ImpactSet(name, opts)
				conc := g.ConcentrationSet(name, opts)
				for site := range imp {
					if !conc[site] {
						t.Logf("provider %s: %s in impact but not concentration", name, site)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: widening the traversal never shrinks the sets.
func TestPropertyTraversalMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed)
		for name := range g.Providers {
			dImp := g.Impact(name, DirectOnly())
			aImp := g.Impact(name, AllIndirect())
			if aImp < dImp {
				return false
			}
			dC := g.Concentration(name, DirectOnly())
			aC := g.Concentration(name, AllIndirect())
			if aC < dC {
				return false
			}
			// Partial traversal is between the two.
			for _, svc := range Services {
				p := g.Impact(name, TraversalOpts{ViaProviders: []Service{svc}})
				if p < dImp || p > aImp {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: direct concentration equals the count of distinct sites listing
// the provider in a third-party dep or owning it as private infrastructure.
func TestPropertyDirectConcentrationMatchesManualCount(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed)
		for name := range g.Providers {
			manual := map[string]bool{}
			for _, s := range g.Sites {
				for _, d := range s.Deps {
					if !d.Class.UsesThird() {
						continue
					}
					for _, p := range d.Providers {
						if p == name {
							manual[s.Name] = true
						}
					}
				}
				for _, infra := range s.PrivateInfra {
					for _, p := range infra {
						if p == name {
							manual[s.Name] = true
						}
					}
				}
			}
			if g.Concentration(name, DirectOnly()) != len(manual) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: the batched metrics engine agrees exactly with the seed
// per-provider recursion — counts match the recursive set sizes for every
// provider and traversal, and TopProviders returns byte-identical
// ProviderStat slices to the recursive reference implementation. The
// graphs are padded to two to four bitset words (see padFiller), so the
// engine holds sets in both forms; the test fails if either never occurs.
func TestPropertyBatchedEngineMatchesRecursive(t *testing.T) {
	optsList := []TraversalOpts{
		DirectOnly(),
		AllIndirect(),
		{ViaProviders: []Service{CA}},
		{ViaProviders: []Service{DNS, CDN}},
	}
	var dense, sparse int
	f := func(seed int64) bool {
		g := randomGraph(seed)
		g = NewGraph(padFiller(g.Sites, providerList(g), 64*int(2+uint64(seed)%3)))
		forms := map[string]bool{}
		for view, opts := range optsList {
			setForms(g, view, opts, forms)
			for name := range g.Providers {
				if g.Concentration(name, opts) != len(g.concentrationSetRecursive(name, opts)) {
					t.Logf("seed %d: C(%s) mismatch", seed, name)
					return false
				}
				if g.Impact(name, opts) != len(g.impactSetRecursive(name, opts)) {
					t.Logf("seed %d: I(%s) mismatch", seed, name)
					return false
				}
			}
			for _, svc := range Services {
				for _, byImpact := range []bool{false, true} {
					batch := g.TopProviders(svc, opts, byImpact, 0)
					ref := g.topProvidersRecursive(svc, opts, byImpact, 0)
					if !reflect.DeepEqual(batch, ref) {
						t.Logf("seed %d svc %s byImpact %v:\nbatch: %+v\nref:   %+v",
							seed, svc, byImpact, batch, ref)
						return false
					}
				}
			}
		}
		for _, d := range forms {
			if d {
				dense++
			} else {
				sparse++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
	t.Logf("%d dense and %d sparse sets", dense, sparse)
	if dense == 0 || sparse == 0 {
		t.Errorf("%d dense and %d sparse sets, want both forms", dense, sparse)
	}
}

// Property: every site's robustness score is in [0,1], and sites with a
// score of 1 have no critical providers.
func TestPropertyRobustnessBounds(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed)
		for _, s := range g.Sites {
			r, err := g.RobustnessOf(s.Name)
			if err != nil {
				return false
			}
			if r.Score < 0 || r.Score > 1 {
				return false
			}
			if r.Score == 1 && len(r.CriticalProviders) != 0 {
				return false
			}
			if len(r.CriticalProviders) > 0 && r.SharedFate == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the concentration CDF is monotonically non-decreasing and ends
// at 1 when any third-party user exists.
func TestPropertyCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed)
		for _, svc := range Services {
			cdf := ConcentrationCDF(g, svc)
			prev := 0.0
			for _, p := range cdf {
				if p.Coverage < prev {
					return false
				}
				prev = p.Coverage
			}
			if len(cdf) > 0 && cdf[len(cdf)-1].Coverage != 1.0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
