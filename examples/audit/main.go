// Audit: the "dependency audit service" the paper's §8.3 envisions — given
// one website, walk its complete dependency structure (direct and hidden)
// and report which provider outages would take it down.
//
// Usage: audit [site]  (default: the highest-ranked critically-dependent
// site of the generated world)
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"depscope/internal/analysis"
	"depscope/internal/core"
	"depscope/internal/ecosystem"
)

func main() {
	log.SetFlags(0)
	site := ""
	if len(os.Args) > 1 {
		site = os.Args[1]
	}
	if err := audit(context.Background(), os.Stdout, 3000, site); err != nil {
		log.Fatal(err)
	}
}

// audit measures a generated world of the given scale and writes the audit
// of site to w; an empty site picks the first critically-dependent one.
func audit(ctx context.Context, w io.Writer, scale int, site string) error {
	run, err := analysis.Execute(ctx, analysis.Options{
		Scale:     scale,
		Seed:      7,
		Snapshots: []ecosystem.Snapshot{ecosystem.Y2020},
	})
	if err != nil {
		return err
	}
	sd := run.Y2020

	if site == "" {
		// Pick the first site with a critical DNS dependency and a CDN.
		for _, s := range sd.Graph.Sites {
			_, cdn := s.Deps[core.CDN]
			_, ca := s.Deps[core.CA]
			if s.Deps[core.DNS].Class.Critical() && cdn && ca {
				site = s.Name
				break
			}
		}
	}
	node := sd.Graph.Site(site)
	if node == nil {
		return fmt.Errorf("site %q not in the generated world", site)
	}

	fmt.Fprintf(w, "dependency audit for %s (rank %d)\n\n", site, node.Rank)

	// Raw measurement evidence, as a dig-based audit would show it.
	r := sd.World.NewResolver()
	ns, err := r.NS(ctx, site)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "nameservers:")
	for _, h := range ns {
		soa, _, _ := r.SOA(ctx, h)
		fmt.Fprintf(w, "  %-40s (authority master %s)\n", h, soa.MName)
	}
	if cert := sd.World.Certs.Get(site); cert != nil {
		fmt.Fprintf(w, "certificate: issued by %s, stapling=%v\n", cert.IssuerCA, cert.Stapled)
		for _, u := range cert.RevocationURLs() {
			fmt.Fprintf(w, "  revocation endpoint %s\n", u)
		}
	}
	// The run released its landing pages after measuring them, so rebuild
	// the world with every page resident to show this one.
	if page := ecosystem.Materialize(run.Universe, ecosystem.Y2020).Page(site); page != nil {
		fmt.Fprintln(w, "landing-page resource hosts:")
		for _, h := range page.Hosts() {
			chain, err := r.CNAMEChain(ctx, h)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "  %s", h)
			for _, c := range chain[1:] {
				fmt.Fprintf(w, " -> %s", c)
			}
			fmt.Fprintln(w)
		}
	}

	// Measured dependency classes.
	fmt.Fprintln(w, "\nmeasured dependencies:")
	for _, svc := range []core.Service{core.DNS, core.CDN, core.CA} {
		d, ok := node.Deps[svc]
		if !ok || d.Class == core.ClassNone {
			fmt.Fprintf(w, "  %-4s not used / not applicable\n", svc)
			continue
		}
		fmt.Fprintf(w, "  %-4s %-14s %v\n", svc, d.Class, d.Providers)
	}

	// Which single provider outages take the site down? Walk every provider
	// and test membership in its transitive impact set.
	fmt.Fprintln(w, "\nsingle points of failure (provider outage -> site down):")
	found := 0
	for _, svc := range []core.Service{core.DNS, core.CDN, core.CA} {
		for _, st := range sd.Graph.TopProviders(svc, core.AllIndirect(), true, 0) {
			if st.Impact == 0 {
				continue
			}
			if sd.Graph.ImpactSet(st.Name, core.AllIndirect())[site] {
				fmt.Fprintf(w, "  %-28s (%s provider, total impact %d sites)\n", st.Name, svc, st.Impact)
				found++
			}
		}
	}
	if found == 0 {
		fmt.Fprintln(w, "  none - the site is redundantly provisioned everywhere")
	}
	return nil
}
