package analysis

import (
	"testing"

	"depscope/internal/core"
	"depscope/internal/measure"
)

// TestBuildGraph verifies the measurement→graph conversion on a hand-built
// Results value, including the private-infrastructure edges.
func TestBuildGraph(t *testing.T) {
	res := &measure.Results{
		Sites: []measure.SiteResult{
			{
				Site: "a.com", Rank: 1,
				DNS: measure.SiteDNS{Class: core.ClassSingleThird, Providers: []string{"dns-p.com"}},
				CDN: measure.SiteCDN{UsesCDN: true, Class: core.ClassSingleThird, Third: []string{"CDN-X"}},
				CA:  measure.SiteCA{HTTPS: true, Third: true, CAName: "ca-p.com", Class: core.ClassSingleThird},
			},
			{
				Site: "b.com", Rank: 2,
				DNS: measure.SiteDNS{Class: core.ClassPrivate},
				CDN: measure.SiteCDN{UsesCDN: true, Class: core.ClassPrivate, PrivateCDNs: []string{"b.com private CDN"}},
				CA:  measure.SiteCA{HTTPS: true, Third: false, CAName: "b-pki.net", Class: core.ClassPrivate},
			},
			{
				Site: "c.com", Rank: 3,
				DNS: measure.SiteDNS{Class: core.ClassUnknown},
			},
		},
		CDNToDNS: map[string]measure.ProviderDep{
			"CDN-X":             {Provider: "CDN-X", Service: core.DNS, Class: core.ClassPrivate},
			"b.com private CDN": {Provider: "b.com private CDN", Service: core.DNS, Class: core.ClassSingleThird, Deps: []string{"awsdns.net"}},
		},
		CAToDNS: map[string]measure.ProviderDep{
			"ca-p.com":  {Provider: "ca-p.com", Service: core.DNS, Class: core.ClassSingleThird, Deps: []string{"dnsmadeeasy.com"}},
			"b-pki.net": {Provider: "b-pki.net", Service: core.DNS, Class: core.ClassSingleThird, Deps: []string{"akam.net"}},
		},
		CAToCDN: map[string]measure.ProviderDep{
			"ca-p.com": {Provider: "ca-p.com", Service: core.CDN, Class: core.ClassNone},
		},
	}
	g := BuildGraph(res)

	// Direct site edges.
	if got := g.Impact("dns-p.com", core.DirectOnly()); got != 1 {
		t.Errorf("I(dns-p.com) = %d", got)
	}
	// CA chain: a.com critically uses ca-p.com which critically uses
	// DNSMadeEasy.
	if got := g.Impact("dnsmadeeasy.com", core.AllIndirect()); got != 1 {
		t.Errorf("I(dnsmadeeasy.com) = %d", got)
	}
	// Hidden private-CDN chain: b.com's own CDN rides AWS.
	if set := g.ImpactSet("awsdns.net", core.AllIndirect()); !set["b.com"] || len(set) != 1 {
		t.Errorf("I(awsdns.net) = %v, want {b.com}", set)
	}
	// Hidden private-CA chain: b.com's own PKI domain rides Akamai DNS.
	if set := g.ImpactSet("akam.net", core.AllIndirect()); !set["b.com"] {
		t.Errorf("I(akam.net) = %v, want b.com included", set)
	}
	// The unknown site contributes no edges.
	if node := g.Site("c.com"); node == nil || node.Deps[core.DNS].Class != core.ClassUnknown {
		t.Error("unknown site mishandled")
	}
	// The private site's own nodes must not pollute the third-party ranking.
	for _, st := range g.TopProviders(core.CDN, core.DirectOnly(), false, 0) {
		if st.Name == "b.com private CDN" && st.Concentration > 0 {
			t.Error("private CDN appeared in third-party concentration ranking")
		}
	}
}

func TestServiceDenominator(t *testing.T) {
	g := BuildGraph(&measure.Results{Sites: []measure.SiteResult{
		{Site: "a.com", DNS: measure.SiteDNS{Class: core.ClassPrivate}, CA: measure.SiteCA{HTTPS: true}},
		{Site: "b.com", DNS: measure.SiteDNS{Class: core.ClassUnknown}, CDN: measure.SiteCDN{UsesCDN: true}},
	}})
	if got := serviceSites(g, core.DNS); got != 1 {
		t.Errorf("DNS denominator = %d", got)
	}
	if got := serviceSites(g, core.CDN); got != 1 {
		t.Errorf("CDN denominator = %d", got)
	}
	if got := serviceSites(g, core.CA); got != 1 {
		t.Errorf("CA denominator = %d", got)
	}
}
