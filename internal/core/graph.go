// Package core implements the paper's analytical contribution: the
// dependency graph over websites and third-party providers, and the
// actionable metrics of §2.2 — critical dependency, provider concentration
// C_p and provider impact I_p, both defined transitively over inter-service
// dependencies by the recursive set-union formulas (including the \{p}
// exclusion that guards against cycles) and computed for every provider at
// once by the batched metrics engine (metrics.go). A Graph holds nodes
// only; the relation the formulas recurse over — which sites use which
// provider directly or critically — is the engine's one direct-user table
// (table.go).
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
// traversal plumbing (cache keys, per-service user counts) iterates.
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

	// The batched metrics engine (metrics.go) is created lazily; it holds
	// the direct-user table and caches per-traversal results. The graph is
	// immutable after NewGraph, so neither ever invalidates.
	metricsMu      sync.Mutex
	metricsWorkers int
	metrics        *MetricsEngine

	// The providers' resolved arrangements (arrangements.go) and the outage
	// simulator's tables (simulate.go), each built on first use and shared
	// by every traversal.
	arrOnce sync.Once
	arrs    *arrTable
	simOnce sync.Once
	sim     *simTables

	// bands is the per-site rank band column (Bands), built on first use.
	bandOnce sync.Once
	bands    SiteBands
}

// NewGraph builds a graph over the given nodes. It derives nothing: the
// direct-user table lives in the metrics engine (table.go), built on first
// query.
func NewGraph(sites []*Site, providers []*Provider) *Graph {
	g := &Graph{
		Sites:     sites,
		Providers: make(map[string]*Provider, len(providers)),
	}
	for _, p := range providers {
		g.Providers[p.Name] = p
	}
	return g
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

// ImpactSet returns the set of websites critically dependent on p directly
// or transitively (§2.2 I_p), read off the metrics engine's dependent-site
// bitset for p.
func (g *Graph) ImpactSet(p string, opts TraversalOpts) map[string]bool {
	return g.Metrics().siteSet(p, opts, true)
}

// Concentration returns |C_p|, served by the batched metrics engine: the
// first query for a traversal computes counts for every provider at once and
// later queries are map lookups.
func (g *Graph) Concentration(p string, opts TraversalOpts) int {
	return g.Metrics().Concentration(p, opts)
}

// Impact returns |I_p|, served by the batched metrics engine.
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
