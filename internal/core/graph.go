// Package core implements the paper's analytical contribution: the
// dependency graph over websites and third-party providers, and the
// actionable metrics of §2.2 — critical dependency, provider concentration
// C_p and provider impact I_p, both computed transitively over inter-service
// dependencies with the recursive set-union formulas (including the \{p}
// exclusion that guards against cycles).
package core

import (
	"fmt"
	"sort"
	"sync"
)

// Service is an infrastructure service type.
type Service int

// The services under study.
const (
	DNS Service = iota
	CDN
	CA
	// Resource is the fourth dependency type: transitive web-resource
	// providers ("The Chain of Implicit Trust"). A site's resource chain —
	// page → third-party script → that vendor's own CDN and DNS — puts the
	// vendor on the critical path without any DNS/CDN/CA arrangement naming
	// it. Chain edges live in Site.Chains; vendor nodes are ordinary
	// Providers with Service == Resource and their own Deps.
	Resource
)

// Services lists the paper's three directly-measured service types. Rankings,
// CDFs and the evolution tables iterate this list, so the original report
// surfaces never see chain data.
var Services = []Service{DNS, CDN, CA}

// AllServices additionally includes the transitive Resource kind — the list
// traversal plumbing (cache keys, index construction) iterates.
var AllServices = []Service{DNS, CDN, CA, Resource}

// String names the service.
func (s Service) String() string {
	switch s {
	case DNS:
		return "DNS"
	case CDN:
		return "CDN"
	case CA:
		return "CA"
	case Resource:
		return "Resource"
	}
	return fmt.Sprintf("Service(%d)", int(s))
}

// DepClass is the measured dependency arrangement of an actor for one
// service.
type DepClass int

// Dependency classes. Unknown marks actors the measurement could not
// characterize; they are excluded from analysis (paper §3.1).
const (
	ClassNone DepClass = iota
	ClassPrivate
	ClassSingleThird
	ClassMultiThird
	ClassPrivatePlusThird
	ClassUnknown
)

// String names the class.
func (c DepClass) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassPrivate:
		return "private"
	case ClassSingleThird:
		return "single-third"
	case ClassMultiThird:
		return "multi-third"
	case ClassPrivatePlusThird:
		return "private+third"
	case ClassUnknown:
		return "unknown"
	}
	return fmt.Sprintf("DepClass(%d)", int(c))
}

// Critical reports whether the class is a critical dependency.
func (c DepClass) Critical() bool { return c == ClassSingleThird }

// UsesThird reports whether any third party is involved.
func (c DepClass) UsesThird() bool {
	return c == ClassSingleThird || c == ClassMultiThird || c == ClassPrivatePlusThird
}

// Redundant reports whether the actor is redundantly provisioned while
// using third parties.
func (c DepClass) Redundant() bool {
	return c == ClassMultiThird || c == ClassPrivatePlusThird
}

// Dep is one actor's measured arrangement for one service.
type Dep struct {
	Class     DepClass
	Providers []string
}

// Site is a website node.
type Site struct {
	Name string
	Rank int
	// Deps maps service → arrangement. A missing service means the site
	// does not consume it (no HTTPS → no CA entry, no CDN use → no CDN
	// entry); ClassUnknown means unmeasurable.
	Deps map[Service]Dep
	// PrivateInfra names provider nodes that are the site's own
	// infrastructure (a private CDN or CA with its own domain). The site
	// depends on them critically by construction, so their third-party
	// dependencies are hidden dependencies of the site — the paper's
	// twitter.com (private CDN on third-party DNS) and godaddy.com (private
	// CA on third-party DNS) cases.
	PrivateInfra map[Service][]string
	// Chains are the site's transitive resource-inclusion edges: one entry
	// per implicitly-trusted vendor the page loads an object from, annotated
	// with the minimum inclusion depth it was reached at (1 = referenced by
	// the page itself, 2 = loaded by a depth-1 resource, ...). Each edge is a
	// critical dependency by construction — the vendor serves an object the
	// page executes — so losing the vendor takes the inclusion down. Empty
	// when the run was measured without -chains.
	Chains []ChainEdge
}

// ChainEdge is one site → vendor resource-inclusion edge.
type ChainEdge struct {
	// Provider is the vendor's provider-node name (its registrable domain).
	Provider string `json:"provider"`
	// Depth is the minimum inclusion depth the vendor was reached at (>= 1).
	Depth int `json:"depth"`
}

// Provider is a provider node with its own (inter-service) dependencies.
type Provider struct {
	Name    string
	Service Service
	Deps    map[Service]Dep
}

// Graph is the full dependency graph of one snapshot.
type Graph struct {
	Sites     []*Site
	Providers map[string]*Provider

	// siteIndex is built lazily on first Site() lookup: at the paper's 100K
	// scale the name→node map costs more to materialize than everything else
	// a graph delta touches, and most derived graphs are only ever queried
	// through the metrics engine.
	siteOnce  sync.Once
	siteIndex map[string]int32 // name → index into Sites
	// usersOf[service][provider] caches direct site users.
	usersOf map[Service]map[string][]*Site
	// criticalUsersOf likewise for critical users only.
	criticalUsersOf map[Service]map[string][]*Site
	// providerUsersOf[provider] lists providers directly using it.
	providerUsersOf map[string][]*Provider
	// privateUsersOf[provider] lists sites owning that private
	// infrastructure node (always a critical dependency).
	privateUsersOf map[string][]*Site

	// The batched metrics engine (metrics.go) is created lazily and caches
	// per-traversal results; the graph is immutable after NewGraph, so the
	// cache never invalidates.
	metricsMu      sync.Mutex
	metricsWorkers int
	metrics        *MetricsEngine

	// Cached outage simulators (simulate.go), one per traversal key, built
	// on the metrics engine's view of the graph.
	simMu sync.Mutex
	sims  map[uint8]*OutageSim
}

// NewGraph builds a graph and its indexes.
func NewGraph(sites []*Site, providers []*Provider) *Graph {
	g := &Graph{
		Sites:           sites,
		Providers:       make(map[string]*Provider, len(providers)),
		usersOf:         make(map[Service]map[string][]*Site),
		criticalUsersOf: make(map[Service]map[string][]*Site),
		providerUsersOf: make(map[string][]*Provider),
		privateUsersOf:  make(map[string][]*Site),
	}
	for _, svc := range AllServices {
		g.usersOf[svc] = make(map[string][]*Site)
		g.criticalUsersOf[svc] = make(map[string][]*Site)
	}
	for _, p := range providers {
		g.Providers[p.Name] = p
	}
	for _, s := range sites {
		for svc, d := range s.Deps {
			if !d.Class.UsesThird() {
				continue
			}
			for _, pname := range d.Providers {
				g.usersOf[svc][pname] = append(g.usersOf[svc][pname], s)
				if d.Class.Critical() {
					g.criticalUsersOf[svc][pname] = append(g.criticalUsersOf[svc][pname], s)
				}
			}
		}
		// A site is critically dependent on its own private infrastructure,
		// so transitive impact flows through those provider nodes — but they
		// are kept out of the public third-party indexes so concentration
		// rankings and CDFs only see real third parties.
		for _, infra := range s.PrivateInfra {
			for _, pname := range infra {
				g.privateUsersOf[pname] = append(g.privateUsersOf[pname], s)
			}
		}
		// Resource-chain edges index under the Resource service, each one a
		// critical dependency (the vendor serves an object the page runs).
		// Multiple edges to the same vendor at different depths collapse to
		// one index entry per site.
		indexChainEdges(g.usersOf[Resource], g.criticalUsersOf[Resource], s)
	}
	for _, p := range providers {
		for _, d := range p.Deps {
			if !d.Class.UsesThird() {
				continue
			}
			for _, dep := range d.Providers {
				g.providerUsersOf[dep] = append(g.providerUsersOf[dep], p)
			}
		}
	}
	return g
}

// indexChainEdges records s's chain edges into the Resource user indexes,
// de-duplicating multiple edges to the same vendor — NewGraph and the delta
// path share it so a delta-built graph indexes identically.
func indexChainEdges(users, critical map[string][]*Site, s *Site) {
	if len(s.Chains) == 0 {
		return
	}
	var seen map[string]bool
	if len(s.Chains) > 1 {
		seen = make(map[string]bool, len(s.Chains))
	}
	for _, e := range s.Chains {
		if seen != nil {
			if seen[e.Provider] {
				continue
			}
			seen[e.Provider] = true
		}
		users[e.Provider] = append(users[e.Provider], s)
		critical[e.Provider] = append(critical[e.Provider], s)
	}
}

// Site returns a site node by name, or nil. The index is built on first
// use; duplicate names resolve to the later node, matching the historical
// eager index.
func (g *Graph) Site(name string) *Site {
	if i, ok := g.SiteIndex(name); ok {
		return g.Sites[i]
	}
	return nil
}

// SiteIndex returns the position in Sites of the site Site(name) returns —
// the index OutageResult slices use.
func (g *Graph) SiteIndex(name string) (int, bool) {
	g.siteOnce.Do(g.buildSiteIndex)
	i, ok := g.siteIndex[name]
	return int(i), ok
}

func (g *Graph) buildSiteIndex() {
	m := make(map[string]int32, len(g.Sites))
	for i, s := range g.Sites {
		m[s.Name] = int32(i)
	}
	g.siteIndex = m
}

// TraversalOpts selects which inter-service edges participate in the
// transitive concentration/impact computation. The zero value traverses
// website edges only (direct dependencies).
type TraversalOpts struct {
	// ViaProviders enables traversing dependencies of providers of these
	// service types (e.g. only CA for the Fig 7 CA→DNS analysis); nil means
	// no provider edges.
	ViaProviders []Service
}

// AllIndirect traverses every inter-service edge between the three directly
// measured services. Resource vendors stay opaque: a provider's C_p/I_p under
// AllIndirect never grows through a chain edge, so every pre-chain metric is
// reproduced exactly.
func AllIndirect() TraversalOpts {
	return TraversalOpts{ViaProviders: []Service{DNS, CDN, CA}}
}

// AllImplicit additionally traverses through Resource vendor nodes: a DNS
// provider serving a vendor's zone picks up every site including that
// vendor's script — the implicit C_p/I_p of the chain analysis.
func AllImplicit() TraversalOpts {
	return TraversalOpts{ViaProviders: []Service{DNS, CDN, CA, Resource}}
}

// DirectOnly traverses no provider edges.
func DirectOnly() TraversalOpts { return TraversalOpts{} }

func (o TraversalOpts) allows(svc Service) bool {
	for _, s := range o.ViaProviders {
		if s == svc {
			return true
		}
	}
	return false
}

// ConcentrationSet returns the set of websites directly or indirectly
// dependent on provider p (§2.2 C_p), traversing provider edges per opts.
func (g *Graph) ConcentrationSet(p string, opts TraversalOpts) map[string]bool {
	out := make(map[string]bool)
	g.gather(p, opts, false, out, map[string]bool{p: true})
	return out
}

// ImpactSet returns the set of websites critically dependent on p directly
// or transitively (§2.2 I_p).
func (g *Graph) ImpactSet(p string, opts TraversalOpts) map[string]bool {
	out := make(map[string]bool)
	g.gather(p, opts, true, out, map[string]bool{p: true})
	return out
}

// gather unions D^p_w (or E^p_w) with the recursion over providers using p.
// visited implements the \{p} exclusion of the formulas, generalized to the
// whole recursion path so provider cycles terminate.
func (g *Graph) gather(p string, opts TraversalOpts, critical bool, out map[string]bool, visited map[string]bool) {
	users := g.usersOf
	if critical {
		users = g.criticalUsersOf
	}
	for _, svcUsers := range users {
		for _, s := range svcUsers[p] {
			out[s.Name] = true
		}
	}
	for _, s := range g.privateUsersOf[p] {
		out[s.Name] = true
	}
	for _, k := range g.providerUsersOf[p] {
		if visited[k.Name] || !opts.allows(k.Service) {
			continue
		}
		// Does k depend on p in the required (critical) way?
		usesP := false
		for _, d := range k.Deps {
			if !d.Class.UsesThird() || (critical && !d.Class.Critical()) {
				continue
			}
			for _, dep := range d.Providers {
				if dep == p {
					usesP = true
				}
			}
		}
		if !usesP {
			continue
		}
		visited[k.Name] = true
		g.gather(k.Name, opts, critical, out, visited)
	}
}

// Concentration returns |C_p|, served by the batched metrics engine: the
// first query for a traversal computes counts for every provider at once and
// later queries are map lookups. It always equals len(ConcentrationSet).
func (g *Graph) Concentration(p string, opts TraversalOpts) int {
	return g.Metrics().Concentration(p, opts)
}

// Impact returns |I_p|, served by the batched metrics engine. It always
// equals len(ImpactSet).
func (g *Graph) Impact(p string, opts TraversalOpts) int {
	return g.Metrics().Impact(p, opts)
}

// ProviderStat pairs a provider with its concentration and impact.
type ProviderStat struct {
	Name          string
	Service       Service
	Concentration int
	Impact        int
}

// TopProviders ranks the providers of svc by the chosen metric under opts,
// descending; n <= 0 returns all. Metrics are lookups into the engine's
// cached batch propagation for opts, which every ranking of the graph
// shares.
func (g *Graph) TopProviders(svc Service, opts TraversalOpts, byImpact bool, n int) []ProviderStat {
	m := g.Metrics()
	return g.topProviders(svc, byImpact, n, func(pname string) (int, int) {
		return m.Concentration(pname, opts), m.Impact(pname, opts)
	})
}

// topProviders ranks the ProvidersOfService candidates with metrics
// supplied by the given lookup.
func (g *Graph) topProviders(svc Service, byImpact bool, n int, metrics func(string) (conc, imp int)) []ProviderStat {
	var stats []ProviderStat
	for _, pname := range g.ProvidersOfService(svc) {
		conc, imp := metrics(pname)
		stats = append(stats, ProviderStat{
			Name:          pname,
			Service:       svc,
			Concentration: conc,
			Impact:        imp,
		})
	}
	sort.Slice(stats, func(i, j int) bool {
		a, b := stats[i], stats[j]
		ka, kb := a.Concentration, b.Concentration
		if byImpact {
			ka, kb = a.Impact, b.Impact
		}
		if ka != kb {
			return ka > kb
		}
		return a.Name < b.Name
	})
	if n > 0 && len(stats) > n {
		stats = stats[:n]
	}
	return stats
}

// hasPublicUsers reports whether any site uses pname as a third party.
func (g *Graph) hasPublicUsers(pname string) bool {
	for _, svcUsers := range g.usersOf {
		if len(svcUsers[pname]) > 0 {
			return true
		}
	}
	return false
}

// walkAll is the closure gate of the site-side critical-dependency walks:
// it continues through providers of every service. Hoisted so no walk
// allocates its traversal.
var walkAll = AllImplicit()

// CriticalDepsPerSite returns, for each site, the number of distinct
// providers it critically depends on. With indirect true, a provider's own
// critical dependencies are charged to the sites critically depending on it
// (§8.1: 25% of sites have ≥3 critical dependencies vs 9.6% direct).
func (g *Graph) CriticalDepsPerSite(indirect bool) map[string]int {
	opts := DirectOnly()
	if indirect {
		opts = walkAll
	}
	out := make(map[string]int, len(g.Sites))
	for _, s := range g.Sites {
		out[s.Name] = len(g.criticalSet(s, opts))
	}
	return out
}

// CriticalProviders returns, sorted, every provider s depends on critically,
// directly or transitively through provider-to-provider critical
// dependencies — the per-site set CriticalDepsPerSite(true) counts.
func (g *Graph) CriticalProviders(s *Site) []string {
	set := g.criticalSet(s, walkAll)
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// criticalSet collects the critical closures of the providers of s's
// critical arrangements.
func (g *Graph) criticalSet(s *Site, opts TraversalOpts) map[string]bool {
	set := make(map[string]bool)
	for _, d := range s.Deps {
		if !d.Class.Critical() {
			continue
		}
		for _, pname := range d.Providers {
			g.criticalClosure(pname, opts, set)
		}
	}
	return set
}

// criticalClosure is the one walk over provider-to-provider critical
// edges. Reaching a provider adds it to set; walking on through it requires
// opts to allow its service. set doubles as the visited set, so one set
// shared across several roots walks each provider once and ends as the
// union of the roots' closures.
func (g *Graph) criticalClosure(p string, opts TraversalOpts, set map[string]bool) {
	if set[p] {
		return
	}
	set[p] = true
	prov, ok := g.Providers[p]
	if !ok || !opts.allows(prov.Service) {
		return
	}
	for _, d := range prov.Deps {
		if !d.Class.Critical() {
			continue
		}
		for _, dep := range d.Providers {
			g.criticalClosure(dep, opts, set)
		}
	}
}
