package analysis

import (
	"sort"
	"strings"

	"depscope/internal/core"
)

// Graph diffs: the structured answer to "what changed between these two
// dependency graphs?". A diff pairs every provider whose concentration C_p
// or impact I_p moved with its before/after counts, and every site whose
// dependency class changed for some service with its before/after class —
// the per-edit view behind the paper's 2016→2020 comparison tables, exposed
// over the query API as GET /v1/diff after a delta is applied.

// ProviderDelta is one provider whose metrics differ between two graphs.
// A provider absent from one side reports zero counts for that side.
type ProviderDelta struct {
	Name             string `json:"name"`
	Service          string `json:"service"`
	OldConcentration int    `json:"old_concentration"`
	NewConcentration int    `json:"new_concentration"`
	OldImpact        int    `json:"old_impact"`
	NewImpact        int    `json:"new_impact"`
	// DeltaConcentration and DeltaImpact are new − old, denormalized so API
	// consumers need no arithmetic.
	DeltaConcentration int `json:"delta_concentration"`
	DeltaImpact        int `json:"delta_impact"`
}

// SiteClassChange is one site whose arrangement class changed for one
// service ("none" marks a side where the site lacks the service entirely —
// or, for added/removed sites, does not exist).
type SiteClassChange struct {
	Site     string `json:"site"`
	Service  string `json:"service"`
	OldClass string `json:"old_class"`
	NewClass string `json:"new_class"`
}

// GraphDiff is the full change surface between two graphs.
type GraphDiff struct {
	// Providers lists every provider whose C_p or I_p changed, ordered by
	// service (dns, cdn, ca), then by descending |ΔC_p|+|ΔI_p|, then name —
	// deterministic, biggest movers first.
	Providers []ProviderDelta `json:"providers,omitempty"`
	// SiteChanges lists per-service class transitions, ordered by site then
	// service.
	SiteChanges []SiteClassChange `json:"site_changes,omitempty"`
	// SitesAdded and SitesRemoved name sites present on only one side, sorted.
	SitesAdded   []string `json:"sites_added,omitempty"`
	SitesRemoved []string `json:"sites_removed,omitempty"`
}

// DiffGraphs computes the change surface from prev to cur. Metric lookups go
// through each graph's metrics engine, so diffing a delta-derived graph
// against its base reuses the carried propagation instead of re-walking
// either graph from scratch.
func DiffGraphs(prev, cur *core.Graph) *GraphDiff {
	d := &GraphDiff{}
	opts := core.AllIndirect()
	// AllServices: chain vendors (Resource providers) diff like any other
	// provider; without chains the Resource maps are empty and nothing
	// changes.
	for _, svc := range core.AllServices {
		old := statsByName(prev, svc, opts)
		now := statsByName(cur, svc, opts)
		for name, o := range old {
			n, ok := now[name]
			if !ok {
				n = core.ProviderStat{Name: name, Service: svc}
			}
			appendProviderDelta(d, svc, o, n)
		}
		for name, n := range now {
			if _, ok := old[name]; ok {
				continue // already compared above
			}
			appendProviderDelta(d, svc, core.ProviderStat{Name: name, Service: svc}, n)
		}
	}
	sort.Slice(d.Providers, func(i, j int) bool {
		a, b := d.Providers[i], d.Providers[j]
		if a.Service != b.Service {
			return serviceOrder(a.Service) < serviceOrder(b.Service)
		}
		ma := abs(a.DeltaConcentration) + abs(a.DeltaImpact)
		mb := abs(b.DeltaConcentration) + abs(b.DeltaImpact)
		if ma != mb {
			return ma > mb
		}
		return a.Name < b.Name
	})
	diffSites(d, prev, cur)
	return d
}

// statsByName indexes TopProviders output by provider name.
func statsByName(g *core.Graph, svc core.Service, opts core.TraversalOpts) map[string]core.ProviderStat {
	stats := g.TopProviders(svc, opts, false, 0)
	out := make(map[string]core.ProviderStat, len(stats))
	for _, st := range stats {
		out[st.Name] = st
	}
	return out
}

func appendProviderDelta(d *GraphDiff, svc core.Service, o, n core.ProviderStat) {
	if o.Concentration == n.Concentration && o.Impact == n.Impact {
		return
	}
	d.Providers = append(d.Providers, ProviderDelta{
		Name:               o.Name,
		Service:            strings.ToLower(svc.String()),
		OldConcentration:   o.Concentration,
		NewConcentration:   n.Concentration,
		OldImpact:          o.Impact,
		NewImpact:          n.Impact,
		DeltaConcentration: n.Concentration - o.Concentration,
		DeltaImpact:        n.Impact - o.Impact,
	})
}

// diffSites fills the site-side change lists. Node identity is the fast
// path: delta-derived graphs share untouched Site nodes with their base, so
// only replaced nodes pay the per-service class comparison.
func diffSites(d *GraphDiff, prev, cur *core.Graph) {
	prevByName := make(map[string]*core.Site, len(prev.Sites))
	for _, s := range prev.Sites {
		prevByName[s.Name] = s
	}
	seen := make(map[string]bool, len(cur.Sites))
	for _, s := range cur.Sites {
		seen[s.Name] = true
		ps, ok := prevByName[s.Name]
		if !ok {
			d.SitesAdded = append(d.SitesAdded, s.Name)
			continue
		}
		if ps == s {
			continue // shared node: definitionally unchanged
		}
		for _, svc := range core.Services {
			oc := ps.Deps[svc].Class
			nc := s.Deps[svc].Class
			if oc == nc {
				continue
			}
			d.SiteChanges = append(d.SiteChanges, SiteClassChange{
				Site:     s.Name,
				Service:  strings.ToLower(svc.String()),
				OldClass: oc.String(),
				NewClass: nc.String(),
			})
		}
	}
	for _, s := range prev.Sites {
		if !seen[s.Name] {
			d.SitesRemoved = append(d.SitesRemoved, s.Name)
		}
	}
	sort.Strings(d.SitesAdded)
	sort.Strings(d.SitesRemoved)
	sort.Slice(d.SiteChanges, func(i, j int) bool {
		a, b := d.SiteChanges[i], d.SiteChanges[j]
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return serviceOrder(a.Service) < serviceOrder(b.Service)
	})
}

func serviceOrder(s string) int {
	switch s {
	case "dns":
		return 0
	case "cdn":
		return 1
	case "ca":
		return 2
	}
	return 3
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
