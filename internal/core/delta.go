package core

import (
	"fmt"
	"maps"
	"slices"
)

// This file implements graph deltas: small structural edits — a site added
// or removed, a dependency added, dropped or re-provisioned, a provider
// swapped — applied to an existing immutable Graph to produce a new
// immutable Graph. The paper's central question (have sites diversified
// between 2016 and 2020?) is a question about deltas between universes, and
// the ROADMAP's continuous-evolution timelines need many snapshots, not two.
//
// Apply never mutates the receiver. The new graph shares every untouched
// Site and Provider node with the old one, and a site an op edits is
// replaced by an edited copy, so both graphs stay independently valid (and
// independently cacheable) after the call. The metrics engine, which holds
// the direct-user table, is carried across the delta when possible — see
// MetricsEngine.ApplyDelta in delta_metrics.go — so applying a single-site
// delta patches the rows of the sites it unlinks and links instead of
// paying for a from-scratch table, condensation and propagation.

// OpKind identifies one delta operation.
type OpKind uint8

// Delta operation kinds.
const (
	// OpSiteAdd appends a new site node (Op.Site).
	OpSiteAdd OpKind = iota
	// OpSiteRemove removes the site named Op.Name.
	OpSiteRemove
	// OpSiteDep replaces the Op.Service arrangement of site Op.Name with
	// Op.Dep — covering dependency addition, removal (a zero Dep deletes the
	// service entry) and redundancy changes (single-third → multi-third).
	OpSiteDep
	// OpSwap replaces provider Op.From with Op.To in site Op.Name's
	// Op.Service arrangement — the paper's diversification move (e.g.
	// swapping Dyn for a different managed-DNS operator after the incident).
	OpSwap
	// OpProviderSet adds or replaces the provider node Op.Provider.
	OpProviderSet
	// OpProviderRemove deletes the provider node named Op.Name. Sites and
	// providers still referencing the name keep their edges; the name simply
	// loses its own outgoing dependencies.
	OpProviderRemove
)

// String names the op kind, matching the JSON wire encoding.
func (k OpKind) String() string {
	switch k {
	case OpSiteAdd:
		return "site-add"
	case OpSiteRemove:
		return "site-remove"
	case OpSiteDep:
		return "site-dep"
	case OpSwap:
		return "swap"
	case OpProviderSet:
		return "provider-set"
	case OpProviderRemove:
		return "provider-remove"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one delta operation. Which fields are meaningful depends on Kind;
// see the OpKind constants.
type Op struct {
	Kind OpKind
	// Name is the target site name (OpSiteRemove, OpSiteDep, OpSwap) or
	// provider name (OpProviderRemove).
	Name string
	// Site is the node payload of OpSiteAdd. Apply takes ownership: the
	// caller must not mutate it afterwards.
	Site *Site
	// Service selects the arrangement OpSiteDep/OpSwap edits.
	Service Service
	// Dep is the new arrangement for OpSiteDep; the zero value deletes the
	// service entry.
	Dep Dep
	// From and To are the swapped provider identities for OpSwap.
	From, To string
	// Provider is the node payload of OpProviderSet (owned by Apply).
	Provider *Provider
}

// Delta is an ordered list of operations applied atomically: either every
// op validates and a new graph is returned, or the original graph is left
// untouched and an error pinpoints the failing op.
type Delta struct {
	Ops []Op
}

// ApplyStats reports what a Delta touched, so callers (the serving layer,
// the timeline replayer) can record telemetry without core importing it.
type ApplyStats struct {
	// Ops is the number of operations applied.
	Ops int
	// SitesAdded / SitesRemoved count site-universe changes.
	SitesAdded, SitesRemoved int
	// DirtyNames is the number of provider names whose C_p/I_p counts may
	// have changed (touched names plus their transitive dependency closure).
	DirtyNames int
	// Structural reports that provider-to-provider edges changed, which
	// invalidates the cached condensation.
	Structural bool
	// Rebuilt reports that the metrics engine state could not be carried
	// across the delta (structural change, dirtiness past the threshold, or
	// no cached engine) and the next metrics query pays a from-scratch fill.
	Rebuilt bool
	// PatchedEntries counts cached traversal results carried incrementally.
	PatchedEntries int
}

// DeltaEffect summarizes a delta's touched surface. Graph.Apply computes
// it; MetricsEngine.ApplyDelta consumes it to decide what to recompute.
type DeltaEffect struct {
	// Touched holds the provider names an op actually edited: the names
	// the unlinked and linked site nodes reference, and provider nodes set
	// or removed together with their dependency targets.
	Touched map[string]bool
	// Dirty holds every provider name whose concentration or impact count
	// may differ on the new graph: the touched names plus everything those
	// names transitively depend on (set inclusion flows from a dependant
	// into every provider it uses, so a base change at p dirties p and all
	// providers p's chain rests on). Touched ⊆ Dirty.
	Dirty map[string]bool
	// AddedSites are site nodes new to the universe, in application order.
	AddedSites []*Site
	// Links lists, in op order, every site node the delta unlinked from the
	// graph or linked into it: a removal unlinks, an addition links, and an
	// edit unlinks the old node and links its replacement.
	Links []SiteLink
	// RemovedSites counts removed site nodes.
	RemovedSites int
	// Structural is true when provider nodes (and thus provider-to-provider
	// edges) changed: the condensation must be rebuilt from scratch.
	Structural bool
}

// SiteLink is one entry of DeltaEffect.Links.
type SiteLink struct {
	Site   *Site
	Linked bool // false: the node was unlinked
}

// Apply produces a new graph with d applied. The receiver is never
// mutated: untouched nodes are shared, and the receiver's cached metrics
// engine (if any) is carried forward incrementally. An empty delta returns
// the receiver itself.
func (g *Graph) Apply(d Delta) (*Graph, ApplyStats, error) {
	stats := ApplyStats{Ops: len(d.Ops)}
	if len(d.Ops) == 0 {
		return g, stats, nil
	}
	ng := &Graph{
		Sites:          slices.Clone(g.Sites),
		Providers:      maps.Clone(g.Providers),
		metricsWorkers: g.metricsWorkers,
	}
	// ng's own site index stays unbuilt (it is lazily derived from ng.Sites
	// on first query); op lookups go through the base graph's index plus an
	// overlay of the nodes this delta has already replaced, so a single-site
	// delta never pays for cloning a 100K-entry map.
	cx := &applyCtx{base: g, ng: ng, touched: make(map[string]*Site)}
	eff := &DeltaEffect{Touched: make(map[string]bool)}
	for i := range d.Ops {
		if err := cx.applyOp(&d.Ops[i], eff); err != nil {
			return nil, stats, fmt.Errorf("delta op %d (%s): %w", i, d.Ops[i].Kind, err)
		}
	}
	eff.Dirty = maps.Clone(eff.Touched)
	ng.dirtyClosure(eff.Dirty)
	stats.SitesAdded = len(eff.AddedSites)
	stats.SitesRemoved = eff.RemovedSites
	stats.DirtyNames = len(eff.Dirty)
	stats.Structural = eff.Structural

	g.metricsMu.Lock()
	old := g.metrics
	g.metricsMu.Unlock()
	if old == nil {
		// Nothing cached to carry; the new graph builds its engine lazily.
		stats.Rebuilt = true
		return ng, stats, nil
	}
	eng, patched := old.ApplyDelta(ng, eff)
	ng.metrics = eng
	stats.Rebuilt = patched == 0
	stats.PatchedEntries = patched
	return ng, stats, nil
}

// applyCtx threads one Apply call's working state: the base graph, whose
// already-built site index serves name lookups, and an overlay of the site
// nodes this delta has replaced (nil recording a removal) so later ops in
// the same delta see earlier edits.
type applyCtx struct {
	base    *Graph
	ng      *Graph
	touched map[string]*Site
}

// site resolves a site name against the overlay first, then the base index.
func (cx *applyCtx) site(name string) *Site {
	if s, ok := cx.touched[name]; ok {
		return s
	}
	return cx.base.Site(name)
}

// applyOp applies one op to cx.ng (which owns its Sites slice and
// Providers map but shares their nodes with the original graph), recording
// the touched surface.
func (cx *applyCtx) applyOp(op *Op, eff *DeltaEffect) error {
	ng := cx.ng
	switch op.Kind {
	case OpSiteAdd:
		s := op.Site
		if s == nil || s.Name == "" {
			return fmt.Errorf("site payload missing or unnamed")
		}
		if cx.site(s.Name) != nil {
			return fmt.Errorf("site %q already exists", s.Name)
		}
		if err := checkSite(s); err != nil {
			return err
		}
		ng.Sites = append(ng.Sites, s)
		cx.touched[s.Name] = s
		eff.link(s, true)
		siteUses(s, func(name string, _ use) { eff.Touched[name] = true })
		eff.AddedSites = append(eff.AddedSites, s)
		return nil

	case OpSiteRemove:
		s := cx.site(op.Name)
		if s == nil {
			return fmt.Errorf("unknown site %q", op.Name)
		}
		eff.link(s, false)
		cx.touched[op.Name] = nil
		i := slices.Index(ng.Sites, s)
		if i >= 0 {
			ng.Sites = slices.Delete(ng.Sites, i, i+1)
		}
		siteUses(s, func(name string, _ use) { eff.Touched[name] = true })
		eff.RemovedSites++
		return nil

	case OpSiteDep:
		return cx.replaceSiteDep(op.Name, op.Service, op.Dep, eff)

	case OpSwap:
		s := cx.site(op.Name)
		if s == nil {
			return fmt.Errorf("unknown site %q", op.Name)
		}
		if op.To == "" {
			return fmt.Errorf("swap on %q needs a non-empty replacement provider", op.Name)
		}
		d, ok := s.Deps[op.Service]
		if !ok {
			return fmt.Errorf("site %q has no %s arrangement", op.Name, op.Service)
		}
		if !slices.Contains(d.Providers, op.From) {
			return fmt.Errorf("site %q does not use %q for %s", op.Name, op.From, op.Service)
		}
		nd := Dep{Class: d.Class, Providers: make([]string, 0, len(d.Providers))}
		for _, p := range d.Providers {
			if p == op.From {
				p = op.To
			}
			if !slices.Contains(nd.Providers, p) {
				nd.Providers = append(nd.Providers, p)
			}
		}
		return cx.replaceSiteDep(op.Name, op.Service, nd, eff)

	case OpProviderSet:
		p := op.Provider
		if p == nil || p.Name == "" {
			return fmt.Errorf("provider payload missing or unnamed")
		}
		if old := ng.Providers[p.Name]; old != nil {
			markProviderDirty(eff.Touched, old)
		}
		ng.Providers[p.Name] = p
		markProviderDirty(eff.Touched, p)
		eff.Touched[p.Name] = true
		eff.Structural = true
		return nil

	case OpProviderRemove:
		p := ng.Providers[op.Name]
		if p == nil {
			return fmt.Errorf("unknown provider %q", op.Name)
		}
		delete(ng.Providers, op.Name)
		markProviderDirty(eff.Touched, p)
		eff.Touched[op.Name] = true
		eff.Structural = true
		return nil
	}
	return fmt.Errorf("unknown op kind %d", op.Kind)
}

// replaceSiteDep swaps in a copy of the site with svc's arrangement set to
// d (or deleted for the zero Dep), so neither graph sees a half-edited
// node.
func (cx *applyCtx) replaceSiteDep(name string, svc Service, d Dep, eff *DeltaEffect) error {
	ng := cx.ng
	s := cx.site(name)
	if s == nil {
		return fmt.Errorf("unknown site %q", name)
	}
	if old, ok := s.Deps[svc]; ok {
		markDepDirty(eff.Touched, old)
	}
	markDepDirty(eff.Touched, d)

	ns := &Site{
		Name:         s.Name,
		Rank:         s.Rank,
		Deps:         maps.Clone(s.Deps),
		PrivateInfra: s.PrivateInfra,
		Chains:       s.Chains,
	}
	if ns.Deps == nil {
		ns.Deps = make(map[Service]Dep, 1)
	}
	zero := d.Class == ClassNone && len(d.Providers) == 0
	if zero {
		delete(ns.Deps, svc)
	} else {
		ns.Deps[svc] = d
	}
	if err := checkSite(ns); err != nil {
		return err
	}

	if i := slices.Index(ng.Sites, s); i >= 0 {
		ng.Sites[i] = ns
	}
	cx.touched[name] = ns
	eff.link(s, false)
	eff.link(ns, true)
	return nil
}

// checkSite rejects a site node a delta would link with a third-party
// arrangement that names no provider: the class promises a third party the
// graph could not resolve.
func checkSite(s *Site) error {
	for _, svc := range AllServices {
		if d := s.Deps[svc]; d.Class.UsesThird() && len(d.Providers) == 0 {
			return fmt.Errorf("site %q: class %s requires providers", s.Name, d.Class)
		}
	}
	return nil
}

// link records one site node unlinked from or linked into the graph.
func (eff *DeltaEffect) link(s *Site, linked bool) {
	eff.Links = append(eff.Links, SiteLink{Site: s, Linked: linked})
}

// markProviderDirty seeds the touched set with a provider node's dependency
// targets (the names whose sets gained or lost this provider's users).
func markProviderDirty(dirty map[string]bool, p *Provider) {
	for _, d := range p.Deps {
		markDepDirty(dirty, d)
	}
}

func markDepDirty(dirty map[string]bool, d Dep) {
	if !d.Class.UsesThird() {
		return
	}
	for _, pname := range d.Providers {
		dirty[pname] = true
	}
}

// dirtyClosure extends the seed set downstream: set(p) includes set(k) for
// every k depending on p, so when base(k) changes, every provider k's chain
// rests on changes too. Walking each seed's dependencies in the new graph
// (a superset of any traversal-filtered view, so one closure is safe for
// every cache key) marks exactly those names.
func (ng *Graph) dirtyClosure(dirty map[string]bool) {
	stack := make([]string, 0, len(dirty))
	for name := range dirty {
		stack = append(stack, name)
	}
	for len(stack) > 0 {
		name := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		p := ng.Providers[name]
		if p == nil {
			continue
		}
		for _, d := range p.Deps {
			if !d.Class.UsesThird() {
				continue
			}
			for _, t := range d.Providers {
				if !dirty[t] {
					dirty[t] = true
					stack = append(stack, t)
				}
			}
		}
	}
}
