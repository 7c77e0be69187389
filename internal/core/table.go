package core

import "slices"

// This file holds the graph's one direct-user table: which sites use which
// provider name directly (the paper's D^p_w) or critically (E^p_w), and
// which providers depend on which. It lives in the metrics engine as int32
// site-id rows, because the batch propagation, the outage simulator and the
// ranking candidates all read it there. One builder (buildTable) produces
// it, fed from the pointer graph's nodes (MetricsEngine.init) or from the
// compact graph's columns (CompactGraph.buildEngine); Graph.Apply patches
// it for the sites a delta unlinks and links (MetricsEngine.ApplyDelta).

// use is the kind of one direct-user entry: the service a site uses a name
// for (Resource for a chain vendor), whether the use is critical, and
// whether the name is the site's own private infrastructure rather than a
// third party. Private owners count apart from third-party users, so
// rankings and CDFs only see real third parties.
type use struct {
	svc      Service
	critical bool
	private  bool
}

var (
	// chainUse: a vendor serves an object the page executes, so every chain
	// edge is a critical dependency.
	chainUse = use{svc: Resource, critical: true}
	// privateUse: a site depends critically on its own infrastructure, so
	// impact flows through those nodes.
	privateUse = use{critical: true, private: true}
)

// depUse classifies one site arrangement: only a third-party arrangement
// makes the site a direct user of its providers, critically when the
// arrangement is single-third.
func depUse(svc Service, cls DepClass) (use, bool) {
	return use{svc: svc, critical: cls.Critical()}, cls.UsesThird()
}

// siteUses calls fn for every direct-user entry of s: each provider of a
// third-party arrangement, each private-infrastructure node and each
// distinct chain vendor. init builds rows with it and Apply patches them
// with it, so a delta-carried table equals a from-scratch one.
func siteUses(s *Site, fn func(name string, k use)) {
	for svc, d := range s.Deps {
		if k, ok := depUse(svc, d.Class); ok {
			for _, p := range d.Providers {
				fn(p, k)
			}
		}
	}
	for _, infra := range s.PrivateInfra {
		for _, p := range infra {
			fn(p, privateUse)
		}
	}
	forEachChainProvider(s, func(p string) { fn(p, chainUse) })
}

// forEachChainProvider visits each distinct chain-edge provider of s once:
// several edges to one vendor at different depths are one direct use.
func forEachChainProvider(s *Site, fn func(string)) {
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
		fn(e.Provider)
	}
}

// userCounts counts one name's direct users: sites using it as a third
// party, per service, and sites owning it as private infrastructure. The
// ranking candidates (ProvidersOfService) and DistinctProviders read them.
type userCounts struct {
	public  [Resource + 1]int32
	private int32
}

// usedFor reports whether some site uses the name as a third party for svc.
func (c *userCounts) usedFor(svc Service) bool {
	return svc >= 0 && int(svc) < len(c.public) && c.public[svc] > 0
}

// usedPublicly reports whether some site uses the name as a third party.
func (c *userCounts) usedPublicly() bool {
	for _, n := range c.public {
		if n > 0 {
			return true
		}
	}
	return false
}

// tableFeed is the handle a source reports its nodes through. The
// membership rule lives here rather than in the sources: a name enters the
// universe when it is a declared provider, when a site uses it, or when a
// declared provider depends on it through a third-party arrangement.
type tableFeed struct{ e *MetricsEngine }

// buildTable is the one construction routine of the engine's direct-user
// table: the name universe (names, ids), the baseAll/baseCrit rows, the
// per-name user counts and the reverse dependency edges. feed reports every
// declared provider, every site use and every provider dependency.
func (e *MetricsEngine) buildTable(feed func(tableFeed)) {
	e.ids = make(map[string]int)
	e.names, e.baseAll, e.baseCrit, e.edges, e.users = nil, nil, nil, nil, nil
	feed(tableFeed{e})
}

// provider declares a provider node.
func (t tableFeed) provider(name string) { t.e.nameID(name) }

// use records that the site with bitset index site uses name as k says.
func (t tableFeed) use(site int32, name string, k use) {
	t.e.link(t.e.nameID(name), site, k)
}

// dependency records that declared provider k, of service ksvc, has an
// arrangement of class cls naming target. Only third-party arrangements
// are edges. Sources report each provider's dependencies together, so a
// repeated (target, k) pair is always the last edge of target's list; it
// merges into that edge, which is critical when any of the pair's
// arrangements is.
func (t tableFeed) dependency(k string, ksvc Service, cls DepClass, target string) {
	if !cls.UsesThird() {
		return
	}
	e := t.e
	tid, kid := e.nameID(target), int32(e.nameID(k))
	row := e.edges[tid]
	if n := len(row); n > 0 && row[n-1].to == kid {
		row[n-1].critical = row[n-1].critical || cls.Critical()
		return
	}
	e.edges[tid] = append(row, metricEdge{to: kid, svc: ksvc, critical: cls.Critical()})
}

// nameID returns name's id, adding it to the universe with empty rows.
func (e *MetricsEngine) nameID(name string) int {
	if u, ok := e.ids[name]; ok {
		return u
	}
	u := len(e.names)
	e.ids[name] = u
	e.names = append(e.names, name)
	e.baseAll = append(e.baseAll, nil)
	e.baseCrit = append(e.baseCrit, nil)
	e.edges = append(e.edges, nil)
	e.users = append(e.users, userCounts{})
	return u
}

// link adds site to name u's rows and counts. Rows may hold a site more
// than once (two arrangements naming one provider); the propagation sets
// bits, so repeats are harmless, and unlink removes them one at a time.
func (e *MetricsEngine) link(u int, site int32, k use) {
	e.baseAll[u] = append(e.baseAll[u], site)
	if k.critical {
		e.baseCrit[u] = append(e.baseCrit[u], site)
	}
	if k.private {
		e.users[u].private++
	} else {
		e.users[u].public[k.svc]++
	}
}

// unlink removes one entry link added. The caller owns u's rows.
func (e *MetricsEngine) unlink(u int, site int32, k use) {
	e.baseAll[u] = removeOne(e.baseAll[u], site)
	if k.critical {
		e.baseCrit[u] = removeOne(e.baseCrit[u], site)
	}
	if k.private {
		e.users[u].private--
	} else {
		e.users[u].public[k.svc]--
	}
}

// removeOne deletes the first occurrence of v from row, in place.
func removeOne(row []int32, v int32) []int32 {
	if i := slices.Index(row, v); i >= 0 {
		return slices.Delete(row, i, i+1)
	}
	return row
}

// tableUsers returns the initialized engine's universe with its user
// counts.
func (g *Graph) tableUsers() (names []string, users []userCounts) {
	e := g.Metrics()
	e.initOnce.Do(e.init)
	return e.names, e.users
}
