package core

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// DOT export of the dependency graph (the paper's Figure 5 visualisations
// are force layouts of exactly this structure). To keep renderings usable,
// WriteDOT emits the provider-to-provider skeleton plus the site→provider
// edges of at most maxSites sites (0 = all).

// WriteDOT writes a Graphviz digraph of the dependency graph. Sites render
// as boxes, providers as ellipses colored per service; critical edges are
// solid, redundant edges dashed.
func (g *Graph) WriteDOT(w io.Writer, maxSites int) error {
	var b strings.Builder
	b.WriteString("digraph dependencies {\n")
	b.WriteString("  rankdir=LR;\n  node [fontname=\"Helvetica\"];\n")

	colors := map[Service]string{DNS: "#1f77b4", CDN: "#2ca02c", CA: "#d62728"}

	providers := make([]string, 0, len(g.Providers))
	for name := range g.Providers {
		providers = append(providers, name)
	}
	sort.Strings(providers)
	seen := map[string]bool{}
	declProvider := func(name string, svc Service) {
		if seen[name] {
			return
		}
		seen[name] = true
		fmt.Fprintf(&b, "  %q [shape=ellipse color=%q label=\"%s\\n(%s)\"];\n",
			name, colors[svc], name, svc)
	}
	for _, name := range providers {
		declProvider(name, g.Providers[name].Service)
	}
	// Leaf providers referenced only by edges (e.g. DNS providers), in
	// name order, each labeled with the first service (in AllServices
	// order) a site uses it for.
	leafSvc := map[string]Service{}
	for _, s := range g.Sites {
		siteUses(s, func(name string, k use) {
			if svc, ok := leafSvc[name]; !k.private && (!ok || k.svc < svc) {
				leafSvc[name] = k.svc
			}
		})
	}
	leaves := make([]string, 0, len(leafSvc))
	for name := range leafSvc {
		leaves = append(leaves, name)
	}
	sort.Strings(leaves)
	for _, name := range leaves {
		declProvider(name, leafSvc[name])
	}

	edge := func(from, to string, critical bool, svc Service) {
		style := "dashed"
		if critical {
			style = "solid"
		}
		fmt.Fprintf(&b, "  %q -> %q [style=%s color=%q];\n", from, to, style, colors[svc])
	}

	n := 0
	for _, s := range g.Sites {
		interesting := false
		for _, d := range s.Deps {
			if d.Class.UsesThird() {
				interesting = true
			}
		}
		if !interesting {
			continue
		}
		if maxSites > 0 && n >= maxSites {
			break
		}
		n++
		fmt.Fprintf(&b, "  %q [shape=box];\n", s.Name)
		for _, svc := range AllServices {
			if d := s.Deps[svc]; d.Class.UsesThird() {
				for _, p := range d.Providers {
					edge(s.Name, p, d.Class.Critical(), svc)
				}
			}
		}
	}
	for _, name := range providers {
		p := g.Providers[name]
		for _, svc := range AllServices {
			if d := p.Deps[svc]; d.Class.UsesThird() {
				for _, dep := range d.Providers {
					declProvider(dep, svc)
					edge(p.Name, dep, d.Class.Critical(), svc)
				}
			}
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Robustness is the §8.3 "defense metric": a summary of how exposed one
// website is to third-party failures.
type Robustness struct {
	Site string
	// Score in [0,1]: 1 = no critical dependency anywhere in the transitive
	// closure, 0 = critically dependent at every consumed service.
	Score float64
	// CriticalProviders lists every provider whose single failure denies
	// the site a service (transitively).
	CriticalProviders []string
	// RedundantServices / CriticalServices partition the consumed services.
	RedundantServices []Service
	CriticalServices  []Service
	// SharedFate is the largest transitive impact among the site's critical
	// providers: how many other sites fall together with this one.
	SharedFate int
}

// RobustnessOf computes the defense metric for one site. Each consumed
// service contributes equally; a service is safe when the site is private
// or redundant AND none of its (transitively expanded) critical providers
// fail together — i.e. the critical-provider set of that service is empty.
// A private-infrastructure node pins its service through the node's own
// critical dependencies, not through the node itself.
func (g *Graph) RobustnessOf(site string) (Robustness, error) {
	s := g.Site(site)
	if s == nil {
		return Robustness{}, fmt.Errorf("core: unknown site %q", site)
	}
	var r arrRows
	return g.robustness(s, &r, g.arrangements().walk(walkAllBits)), nil
}

// robustness scores site s, resolving its arrangements into r and walking
// with w, which it leaves reset.
func (g *Graph) robustness(s *Site, r *arrRows, w *critWalk) Robustness {
	out := Robustness{Site: s.Name, Score: 1}
	arrs := w.t.resolve(r, s)
	for _, svc := range Services {
		consumed := false
		for _, a := range arrs {
			switch {
			case Service(a.svc) != svc:
			case a.kind == arrDep:
				consumed = true
				if a.criticalDep() {
					w.from(r.provs(a))
				}
			case a.kind == arrPrivate:
				for _, p := range r.provs(a) {
					w.through(p)
				}
			}
		}
		switch {
		case !consumed:
		case len(w.reached) == 0:
			out.RedundantServices = append(out.RedundantServices, svc)
		default:
			out.CriticalServices = append(out.CriticalServices, svc)
			out.CriticalProviders = append(out.CriticalProviders, w.names()...)
		}
		w.reset()
	}
	if n := len(out.RedundantServices) + len(out.CriticalServices); n > 0 {
		out.Score = float64(len(out.RedundantServices)) / float64(n)
	}
	sort.Strings(out.CriticalProviders)
	out.CriticalProviders = slices.Compact(out.CriticalProviders)
	for _, p := range out.CriticalProviders {
		if n := g.Impact(p, AllIndirect()); n > out.SharedFate {
			out.SharedFate = n
		}
	}
	return out
}

// RobustnessDistribution buckets sites by score (0, (0,0.5], (0.5,1), 1)
// — the fleet-level view a "neutral audit service" (§8.2) would expose.
type RobustnessDistribution struct {
	Zero, Low, High, Full int
}

// Add counts one score into its bucket. The §8.3 robustness report and the
// incident engine's resilience distribution share this rule.
func (d *RobustnessDistribution) Add(score float64) {
	switch {
	case score == 0:
		d.Zero++
	case score <= 0.5:
		d.Low++
	case score < 1:
		d.High++
	default:
		d.Full++
	}
}

// RobustnessAll computes the distribution across all sites.
func (g *Graph) RobustnessAll() RobustnessDistribution {
	var d RobustnessDistribution
	var r arrRows
	w := g.arrangements().walk(walkAllBits)
	for _, s := range g.Sites {
		d.Add(g.robustness(s, &r, w).Score)
	}
	return d
}
