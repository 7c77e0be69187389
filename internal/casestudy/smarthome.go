package casestudy

import (
	"context"
	"fmt"

	"depscope/internal/dnsmsg"
	"depscope/internal/dnszone"
	"depscope/internal/measure"
	"depscope/internal/resolver"
)

// Company models one smart-home vendor (§6.2). The cloud dimension and
// local fail-over are company attributes as in the paper's manual analysis;
// the DNS dimension is materialized into zones and measured by the regular
// pipeline.
type Company struct {
	Name   string
	Domain string
	// DNSProviders lists third-party DNS providers (domains); empty plus
	// PrivateDNS means a fully private deployment.
	DNSProviders []string
	PrivateDNS   bool
	// CloudProvider is the third-party cloud, "" for a private cloud.
	CloudProvider string
	// LocalFailover reports whether devices keep working without the cloud.
	LocalFailover bool
}

// Companies returns the 23-company population of §6.2, with the attributes
// the paper reports: 3 private-DNS vendors (Philips Hue, Apple HomeKit,
// Amazon Alexa), 1 redundantly provisioned, 13 of the remaining single-third
// vendors with local fail-over (leaving 8 critically dependent); 15 on a
// third-party cloud (11 of them Amazon), 5 of those without local fail-over.
func Companies() []Company {
	aws := "awsdns.net"
	return []Company{
		// Private DNS.
		{Name: "Philips Hue", Domain: "philips-hue.example", PrivateDNS: true, CloudProvider: "", LocalFailover: true},
		{Name: "Apple HomeKit", Domain: "apple-homekit.example", PrivateDNS: true, CloudProvider: "", LocalFailover: true},
		{Name: "Amazon Alexa", Domain: "amazon-alexa.example", PrivateDNS: true, CloudProvider: "", LocalFailover: false},
		// Redundant DNS.
		{Name: "Samsung SmartThings", Domain: "smartthings.example", DNSProviders: []string{aws, "ultradns.net"}, CloudProvider: "amazon", LocalFailover: true},
		// Critically dependent on DNS, no local fail-over (8 companies;
		// the paper names Logitech Harmony, Yonomi, Brilliant Tech, IFTTT,
		// Petnet, Ecobee, Ring Security).
		{Name: "Logitech Harmony", Domain: "logitech-harmony.example", DNSProviders: []string{aws}, CloudProvider: "amazon", LocalFailover: false},
		{Name: "Yonomi", Domain: "yonomi.example", DNSProviders: []string{aws}, CloudProvider: "private-colo", LocalFailover: false},
		{Name: "Brilliant Tech", Domain: "brilliant-tech.example", DNSProviders: []string{aws}, CloudProvider: "", LocalFailover: false},
		{Name: "IFTTT", Domain: "ifttt.example", DNSProviders: []string{aws}, CloudProvider: "amazon", LocalFailover: false},
		{Name: "Petnet", Domain: "petnet.example", DNSProviders: []string{aws}, CloudProvider: "amazon", LocalFailover: false},
		{Name: "Ecobee", Domain: "ecobee.example", DNSProviders: []string{aws}, CloudProvider: "amazon", LocalFailover: false},
		{Name: "Ring Security", Domain: "ring-security.example", DNSProviders: []string{aws}, CloudProvider: "amazon", LocalFailover: false},
		{Name: "Wink", Domain: "wink.example", DNSProviders: []string{"dynect.net"}, CloudProvider: "", LocalFailover: false},
		// Single third-party DNS with local fail-over (not critical).
		{Name: "Lifx", Domain: "lifx.example", DNSProviders: []string{aws}, CloudProvider: "amazon", LocalFailover: true},
		{Name: "TP-Link Kasa", Domain: "tplink-kasa.example", DNSProviders: []string{aws}, CloudProvider: "amazon", LocalFailover: true},
		{Name: "Wemo", Domain: "wemo.example", DNSProviders: []string{aws}, CloudProvider: "amazon", LocalFailover: true},
		{Name: "Nanoleaf", Domain: "nanoleaf.example", DNSProviders: []string{aws}, CloudProvider: "amazon", LocalFailover: true},
		{Name: "Sengled", Domain: "sengled.example", DNSProviders: []string{aws}, CloudProvider: "amazon", LocalFailover: true},
		{Name: "Wyze", Domain: "wyze.example", DNSProviders: []string{"cloudflare.com"}, CloudProvider: "google", LocalFailover: true},
		{Name: "Tuya", Domain: "tuya.example", DNSProviders: []string{"dnspod.net"}, CloudProvider: "tencent", LocalFailover: true},
		{Name: "Shelly", Domain: "shelly.example", DNSProviders: []string{"cloudflare.com"}, CloudProvider: "", LocalFailover: true},
		{Name: "Hubitat", Domain: "hubitat.example", DNSProviders: []string{"cloudflare.com"}, CloudProvider: "", LocalFailover: true},
		{Name: "Home Assistant Cloud", Domain: "ha-cloud.example", DNSProviders: []string{"cloudflare.com"}, CloudProvider: "azure", LocalFailover: true},
		{Name: "Aqara", Domain: "aqara.example", DNSProviders: []string{"alibabadns.com"}, CloudProvider: "alibaba", LocalFailover: true},
	}
}

// SmartHomeReport is Table 11.
type SmartHomeReport struct {
	Companies int
	// DNS row (measured through the pipeline).
	DNSThird, DNSRedundant, DNSCritical int
	// Cloud row (attribute-based, as in the paper).
	CloudThird, CloudRedundant, CloudCritical int
	// Amazon's footprint (§6.2: 11 of 15 third-party-cloud companies use
	// Amazon; 13 use Amazon DNS).
	AmazonCloud, AmazonDNS int
}

// SmartHome measures the smart-home population.
func SmartHome(ctx context.Context, companies []Company) (*SmartHomeReport, error) {
	if companies == nil {
		companies = Companies()
	}
	store := dnszone.NewStore()
	soa := func(domain string) dnsmsg.SOAData {
		return dnsmsg.SOAData{
			MName: "ns1." + domain + ".", RName: "hostmaster." + domain + ".",
			Serial: 1, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300,
		}
	}
	providers := map[string]bool{}
	var sites []string
	for _, c := range companies {
		z := dnszone.NewZone(c.Domain+".", soa(c.Domain))
		if c.PrivateDNS || len(c.DNSProviders) == 0 {
			z.MustAdd(dnsmsg.Record{Name: c.Domain + ".", Type: dnsmsg.TypeNS, TTL: 3600, Target: "ns1." + c.Domain + "."})
			z.MustAdd(dnsmsg.Record{Name: "ns1." + c.Domain + ".", Type: dnsmsg.TypeA, TTL: 3600, Addr: dnsmsg.IPv4(192, 0, 2, 53)})
		}
		for _, p := range c.DNSProviders {
			providers[p] = true
			z.MustAdd(dnsmsg.Record{Name: c.Domain + ".", Type: dnsmsg.TypeNS, TTL: 3600, Target: "ns1." + p + "."})
			z.MustAdd(dnsmsg.Record{Name: c.Domain + ".", Type: dnsmsg.TypeNS, TTL: 3600, Target: "ns2." + p + "."})
		}
		store.AddZone(z)
		sites = append(sites, c.Domain)
	}
	for p := range providers {
		z := dnszone.NewZone(p+".", dnsmsg.SOAData{
			MName: "ns1." + p + ".", RName: "ops." + p + ".",
			Serial: 1, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300,
		})
		z.MustAdd(dnsmsg.Record{Name: "ns1." + p + ".", Type: dnsmsg.TypeA, TTL: 3600, Addr: dnsmsg.IPv4(203, 0, 113, 1)})
		z.MustAdd(dnsmsg.Record{Name: "ns2." + p + ".", Type: dnsmsg.TypeA, TTL: 3600, Addr: dnsmsg.IPv4(203, 0, 113, 2)})
		store.AddZone(z)
	}

	res, err := measure.Run(ctx, sites, measure.Config{
		Resolver:               resolver.New(resolver.ZoneDirect{Store: store}),
		ConcentrationThreshold: 3,
	})
	if err != nil {
		return nil, err
	}

	rep := &SmartHomeReport{Companies: len(companies)}
	for i, c := range companies {
		sr := res.Sites[i]
		if sr.DNS.Class.UsesThird() {
			rep.DNSThird++
		}
		if sr.DNS.Class.Redundant() {
			rep.DNSRedundant++
		}
		// A DNS outage only takes the product down when there is no local
		// fail-over (§6.2's criticality refinement).
		if sr.DNS.Class.Critical() && !c.LocalFailover {
			rep.DNSCritical++
		}
		for _, p := range c.DNSProviders {
			if p == "awsdns.net" {
				rep.AmazonDNS++
			}
		}
		if c.CloudProvider != "" && c.CloudProvider != "private-colo" {
			rep.CloudThird++
			if !c.LocalFailover {
				rep.CloudCritical++
			}
			if c.CloudProvider == "amazon" {
				rep.AmazonCloud++
			}
		}
	}
	return rep, nil
}

// Render formats Table 11.
func (r *SmartHomeReport) Render() string {
	pct := func(n int) float64 { return 100 * float64(n) / float64(r.Companies) }
	return fmt.Sprintf(`Table 11: smart-home companies (%d)
Service  3rd-Party Dep.   Redundancy    Critical Dependency
DNS      %2d (%4.1f%%)      %2d (%4.1f%%)    %2d (%4.1f%%)
Cloud    %2d (%4.1f%%)      %2d (%4.1f%%)    %2d (%4.1f%%)
Amazon: cloud provider for %d companies, DNS for %d
`,
		r.Companies,
		r.DNSThird, pct(r.DNSThird), r.DNSRedundant, pct(r.DNSRedundant), r.DNSCritical, pct(r.DNSCritical),
		r.CloudThird, pct(r.CloudThird), r.CloudRedundant, pct(r.CloudRedundant), r.CloudCritical, pct(r.CloudCritical),
		r.AmazonCloud, r.AmazonDNS)
}
