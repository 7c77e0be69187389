package ecosystem

import (
	"fmt"
	"sort"
	"strings"
)

// slugOf converts a display name to a DNS-safe label.
func slugOf(name string) string {
	var sb strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			sb.WriteRune(r)
		case r == ' ' || r == '.' || r == '\'' || r == '-':
			// collapse punctuation
		}
	}
	return sb.String()
}

// newDNSProvider builds a DNS provider with hosts ns1/ns2.<domain>.
func newDNSProvider(name, domain string) *Provider {
	return &Provider{
		Name:       name,
		Service:    SvcDNS,
		Domain:     domain,
		NSDomains:  []string{domain},
		Exists2016: true,
		Exists2020: true,
		DNSDeps:    map[Snapshot]ProviderDNS{Y2016: {Private: true}, Y2020: {Private: true}},
		CDNDeps:    map[Snapshot]ProviderCDN{},
	}
}

// newCDNProvider builds a CDN provider with the given CNAME suffix.
func newCDNProvider(name, domain, suffix string, deps map[Snapshot]ProviderDNS) *Provider {
	if deps == nil {
		deps = map[Snapshot]ProviderDNS{Y2016: {Private: true}, Y2020: {Private: true}}
	}
	return &Provider{
		Name:        name,
		Service:     SvcCDN,
		Domain:      domain,
		NSDomains:   []string{domain},
		CNAMESuffix: suffix,
		Exists2016:  true,
		Exists2020:  true,
		DNSDeps:     deps,
		CDNDeps:     map[Snapshot]ProviderCDN{},
	}
}

// newCAProvider builds a CA provider with ocsp/crl hosts under its domain.
func newCAProvider(name, domain string, dns map[Snapshot]ProviderDNS, cdn map[Snapshot]ProviderCDN) *Provider {
	if dns == nil {
		dns = map[Snapshot]ProviderDNS{Y2016: {Private: true}, Y2020: {Private: true}}
	}
	if cdn == nil {
		cdn = map[Snapshot]ProviderCDN{Y2016: {}, Y2020: {}}
	}
	return &Provider{
		Name:       name,
		Service:    SvcCA,
		Domain:     domain,
		NSDomains:  []string{domain},
		OCSPHost:   "ocsp." + domain,
		CDPHost:    "crl." + domain,
		Exists2016: true,
		Exists2020: true,
		DNSDeps:    dns,
		CDNDeps:    cdn,
	}
}

func pvt() ProviderDNS                  { return ProviderDNS{Private: true} }
func third(names ...string) ProviderDNS { return ProviderDNS{Third: names} }
func mixed(names ...string) ProviderDNS { return ProviderDNS{Private: true, Third: names} }

// buildProviders creates the full named provider universe. Tail providers
// are appended by the generator according to the calibration.
func buildProviders() []*Provider {
	var ps []*Provider

	// ---- DNS providers (Fig 5a / Fig 6a universe) ----
	dnsDomains := map[string]string{
		"Cloudflare": "cloudflare.com", "AWS DNS": "awsdns.net", "GoDaddy": "domaincontrol.com",
		"DNSMadeEasy": "dnsmadeeasy.com", "NS1": "nsone.net", "UltraDNS": "ultradns.net",
		"Dyn": "dynect.net", "Azure DNS": "azure-dns.com", "Google Cloud DNS": "googledomains.com",
		"Alibaba DNS": "alibabadns.com", "DNSPod": "dnspod.net", "Hetzner DNS": "hetzner.com",
		"OVH DNS": "ovh.net", "Gandi": "gandi.net", "Namecheap DNS": "registrar-servers.com",
		"Wix DNS": "wixdns.net", "Squarespace DNS": "squarespacedns.com", "Linode DNS": "linode.com",
		"DigitalOcean DNS": "digitalocean.com", "Vercel DNS": "vercel-dns.com", "Netlify DNS": "nsone-netlify.net",
		"Akamai Edge DNS": "akam.net", "Rackspace DNS": "rackspace.com", "Yandex DNS": "yandex.net",
		"HiChina": "hichina.com", "West263": "myhostadmin.net", "DNSimple": "dnsimple.com",
		"easyDNS": "easydns.com", "ClouDNS": "cloudns.net", "Name.com DNS": "name.com",
		"Hostgator DNS": "hostgator.com", "Bluehost DNS": "bluehost.com", "Dreamhost DNS": "dreamhost.com",
		"Hover DNS": "hover.com", "Porkbun DNS": "porkbun.com", "Domain.com DNS": "domain.com",
		"Register.com DNS": "register.com", "Network Solutions DNS": "worldnic.com",
		"IONOS DNS": "ui-dns.com", "Strato DNS": "strato.de", "Aruba DNS": "aruba.it",
		"Loopia DNS": "loopia.se", "Active24 DNS": "active24.cz", "Websupport DNS": "websupport.sk",
		"Eurodns": "eurodns.com", "InternetX": "internetx.com", "CSC DNS": "cscdns.net",
		"MarkMonitor DNS": "markmonitor.com", "SafeNames DNS": "safenames.net", "Instra DNS": "instra.net",
		"NameBright DNS": "namebright.com", "Epik DNS": "epik.com", "Dynadot DNS": "dynadot.com",
		"Sav DNS": "sav.com", "Verisign DNS": "verisigndns.com", "Neustar DNS": "neustar.biz",
		"Comodo DNS": "comododns.net",
	}
	// Declare them in name order: ranging over the map would reorder
	// providerOrder and the zone insertion order run to run.
	dnsNames := make([]string, 0, len(dnsDomains))
	for name := range dnsDomains {
		dnsNames = append(dnsNames, name)
	}
	sort.Strings(dnsNames)
	for _, name := range dnsNames {
		ps = append(ps, newDNSProvider(name, dnsDomains[name]))
	}
	// Alibaba DNS demonstrates the same-entity alias: nameserver hosts under
	// two registrable domains sharing one SOA MNAME (alicdn/alibabadns).
	for _, p := range ps {
		if p.Name == "Alibaba DNS" {
			p.NSDomains = []string{"alibabadns.com", "alidns-cdn.com"}
		}
	}

	// ---- CDN providers (Fig 5b universe, CDN→DNS deps per Table 9) ----
	ps = append(ps,
		// The big five run private DNS (Obs 11).
		newCDNProvider("Amazon CloudFront", "cloudfront.net", "cloudfront.net", nil),
		newCDNProvider("Cloudflare CDN", "cloudflare.net", "cdn.cloudflare.net", nil),
		newCDNProvider("Akamai", "akamai.net", "akamaiedge.net", nil),
		newCDNProvider("Incapsula", "incapdns.net", "incapdns.net", nil),
		newCDNProvider("StackPath", "stackpathdns.com", "stackpathcdn.com", nil),
		// Fastly critically used Dyn in 2016 (the Dyn-incident collateral);
		// by 2020 it added private redundancy.
		newCDNProvider("Fastly", "fastly.net", "fastly.net", map[Snapshot]ProviderDNS{
			Y2016: third("Dyn"), Y2020: mixed("Dyn"),
		}),
		newCDNProvider("KeyCDN", "kxcdn.com", "kxcdn.com", map[Snapshot]ProviderDNS{
			Y2016: third("AWS DNS"), Y2020: third("AWS DNS", "NS1"),
		}),
		newCDNProvider("jsDelivr", "jsdelivr.net", "jsdelivr.net", map[Snapshot]ProviderDNS{
			Y2016: third("AWS DNS", "Cloudflare"), Y2020: third("AWS DNS", "Cloudflare"),
		}),
		// Netlify and Kinx adopted DNS redundancy by 2020 (Table 9).
		newCDNProvider("Netlify CDN", "netlifyglobalcdn.com", "netlifyglobalcdn.com", map[Snapshot]ProviderDNS{
			Y2016: third("AWS DNS"), Y2020: third("AWS DNS", "NS1"),
		}),
		newCDNProvider("Kinx CDN", "kinxcdn.com", "kinxcdn.com", map[Snapshot]ProviderDNS{
			Y2016: third("AWS DNS"), Y2020: mixed("AWS DNS"),
		}),
		// GoCache moved to private DNS by 2020 (Table 9).
		newCDNProvider("GoCache", "gocache.net", "gocache.net", map[Snapshot]ProviderDNS{
			Y2016: third("AWS DNS"), Y2020: pvt(),
		}),
		// Zenedge gave up redundancy by 2020 (Table 9).
		newCDNProvider("Zenedge", "zenedge.net", "zenedge.net", map[Snapshot]ProviderDNS{
			Y2016: third("AWS DNS", "UltraDNS"), Y2020: third("AWS DNS"),
		}),
		newCDNProvider("CDN77", "cdn77.org", "cdn77.org", nil),
		newCDNProvider("Azure CDN", "azureedge.net", "azureedge.net", nil),
		newCDNProvider("Google Cloud CDN", "googleusercontent.com", "cdn.googleusercontent.com", nil),
		newCDNProvider("BunnyCDN", "b-cdn.net", "b-cdn.net", nil),
		newCDNProvider("CacheFly", "cachefly.net", "cachefly.net", nil),
		newCDNProvider("Limelight", "llnwd.net", "llnwd.net", nil),
		newCDNProvider("CDNetworks", "cdngc.net", "cdngc.net", nil),
		newCDNProvider("ChinaNetCenter", "wscdns.com", "wscdns.com", nil),
		newCDNProvider("ArvanCloud", "arvancdn.ir", "arvancdn.ir", nil),
		newCDNProvider("G-Core Labs", "gcdn.co", "gcdn.co", nil),
		newCDNProvider("Medianova", "mncdn.com", "mncdn.com", nil),
		newCDNProvider("Sucuri", "sucuri.net", "cdn.sucuri.net", nil),
		newCDNProvider("Alibaba CDN", "alicdn.com", "alicdn.com", nil),
		newCDNProvider("Tencent CDN", "cdntip.com", "cdntip.com", nil),
		newCDNProvider("Baidu CDN", "bdydns.com", "bdydns.com", nil),
		newCDNProvider("MaxCDN", "netdna-cdn.com", "netdna-cdn.com", map[Snapshot]ProviderDNS{
			// The paper's intro example: academia.edu -> MaxCDN -> AWS DNS.
			Y2016: third("AWS DNS"), Y2020: third("AWS DNS"),
		}),
		newCDNProvider("EdgeCast", "edgecastcdn.net", "edgecastcdn.net", nil),
	)
	// 2020-only / 2016-only CDNs.
	for _, p := range ps {
		switch p.Name {
		case "BunnyCDN", "ArvanCloud", "G-Core Labs", "Vercel CDN", "Sucuri":
			p.Exists2016 = false
		case "MaxCDN", "EdgeCast":
			p.Exists2020 = false
		}
	}
	ps = append(ps, func() *Provider {
		p := newCDNProvider("Vercel CDN", "vercel-cdn.com", "vercel-cdn.com", nil)
		p.Exists2016 = false
		return p
	}())

	// ---- CA providers (Fig 5c universe; CA→DNS per Table 7, CA→CDN per
	// Table 8) ----
	ps = append(ps,
		// DigiCert: critically on DNSMadeEasy in 2020 (the 1%→25%
		// amplification of §5.1); redundantly provisioned in 2016 (Table 7).
		// Its OCSP/CDP infrastructure rides Incapsula (Fig 8).
		newCAProvider("DigiCert", "digicert.com",
			map[Snapshot]ProviderDNS{Y2016: third("DNSMadeEasy", "UltraDNS"), Y2020: third("DNSMadeEasy")},
			map[Snapshot]ProviderCDN{Y2016: {Third: []string{"Incapsula"}}, Y2020: {Third: []string{"Incapsula"}}}),
		// Let's Encrypt: critically on Cloudflare DNS (Cloudflare 24%→44%
		// amplification); adopted a CDN (Cloudflare) between snapshots
		// (Table 8).
		newCAProvider("Let's Encrypt", "letsencrypt.org",
			map[Snapshot]ProviderDNS{Y2016: third("Cloudflare"), Y2020: third("Cloudflare")},
			map[Snapshot]ProviderCDN{Y2016: {}, Y2020: {Third: []string{"Cloudflare CDN"}}}),
		// Sectigo: on Comodo DNS; OCSP via StackPath (2%→16% amplification).
		newCAProvider("Sectigo", "sectigo.com",
			map[Snapshot]ProviderDNS{Y2016: third("Comodo DNS"), Y2020: third("Comodo DNS")},
			map[Snapshot]ProviderCDN{Y2016: {Third: []string{"MaxCDN"}}, Y2020: {Third: []string{"StackPath"}}}),
		newCAProvider("GlobalSign", "globalsign.com",
			map[Snapshot]ProviderDNS{Y2016: third("Akamai Edge DNS"), Y2020: third("Akamai Edge DNS")},
			map[Snapshot]ProviderCDN{Y2016: {Third: []string{"Akamai"}}, Y2020: {Third: []string{"Akamai"}}}),
		// GoDaddy CA: private CA of godaddy.com but itself on Akamai DNS
		// (the §5.1 example of a private CA with a hidden dependency).
		newCAProvider("GoDaddy CA", "godaddyca.com",
			map[Snapshot]ProviderDNS{Y2016: third("Akamai Edge DNS"), Y2020: third("Akamai Edge DNS")},
			map[Snapshot]ProviderCDN{Y2016: {Third: []string{"Akamai"}}, Y2020: {Third: []string{"Akamai"}}}),
		newCAProvider("Amazon CA", "amazontrust.com", nil,
			map[Snapshot]ProviderCDN{Y2016: {Private: true}, Y2020: {Private: true}}),
		newCAProvider("Entrust", "entrust.net",
			map[Snapshot]ProviderDNS{Y2016: third("Comodo DNS"), Y2020: third("Comodo DNS")},
			map[Snapshot]ProviderCDN{Y2016: {Third: []string{"Akamai"}}, Y2020: {Third: []string{"Akamai"}}}),
		newCAProvider("Actalis", "actalis.it",
			map[Snapshot]ProviderDNS{Y2016: third("Comodo DNS"), Y2020: third("Comodo DNS")},
			map[Snapshot]ProviderCDN{Y2016: {Third: []string{"Cloudflare CDN"}}, Y2020: {Third: []string{"Cloudflare CDN"}}}),
		newCAProvider("Buypass", "buypass.com",
			map[Snapshot]ProviderDNS{Y2016: third("Comodo DNS"), Y2020: third("Comodo DNS")},
			map[Snapshot]ProviderCDN{Y2016: {Third: []string{"Cloudflare CDN"}}, Y2020: {Third: []string{"Cloudflare CDN"}}}),
		newCAProvider("SSL.com", "ssl.com",
			map[Snapshot]ProviderDNS{Y2016: third("AWS DNS"), Y2020: third("AWS DNS")},
			map[Snapshot]ProviderCDN{Y2016: {Third: []string{"Cloudflare CDN"}}, Y2020: {Third: []string{"Cloudflare CDN"}}}),
		// Certum: the paper's intro example Certum -> MaxCDN -> AWS DNS.
		newCAProvider("Certum", "certum.pl",
			map[Snapshot]ProviderDNS{Y2016: third("AWS DNS"), Y2020: third("AWS DNS")},
			map[Snapshot]ProviderCDN{Y2016: {Third: []string{"MaxCDN"}}, Y2020: {Third: []string{"Cloudflare CDN"}}}),
		// TrustAsia moved private -> single third DNS (Table 7).
		newCAProvider("TrustAsia", "trustasia.com",
			map[Snapshot]ProviderDNS{Y2016: pvt(), Y2020: third("DNSPod")},
			nil),
		newCAProvider("SwissSign", "swisssign.net",
			map[Snapshot]ProviderDNS{Y2016: third("Akamai Edge DNS"), Y2020: third("Akamai Edge DNS")},
			map[Snapshot]ProviderCDN{Y2016: {Third: []string{"Akamai"}}, Y2020: {Third: []string{"Akamai"}}}),
		newCAProvider("QuoVadis", "quovadisglobal.com",
			map[Snapshot]ProviderDNS{Y2016: third("Cloudflare"), Y2020: third("Cloudflare")},
			map[Snapshot]ProviderCDN{Y2016: {Third: []string{"Akamai"}}, Y2020: {Third: []string{"Akamai"}}}),
		newCAProvider("IdenTrust", "identrust.com",
			map[Snapshot]ProviderDNS{Y2016: third("Cloudflare"), Y2020: third("Cloudflare")},
			map[Snapshot]ProviderCDN{Y2016: {Third: []string{"Akamai"}}, Y2020: {Third: []string{"Akamai"}}}),
		newCAProvider("WISeKey", "wisekey.com",
			map[Snapshot]ProviderDNS{Y2016: third("Cloudflare"), Y2020: third("Cloudflare")},
			nil),
		// Internet2 gave up DNS redundancy between snapshots (Table 7).
		newCAProvider("Internet2 CA", "incommon.org",
			map[Snapshot]ProviderDNS{Y2016: third("AWS DNS", "UltraDNS"), Y2020: third("AWS DNS")},
			nil),
		// TeliaSonera moved its OCSP off a third-party CDN (Table 8).
		newCAProvider("TeliaSonera CA", "teliasonera.net",
			map[Snapshot]ProviderDNS{Y2016: third("AWS DNS"), Y2020: third("AWS DNS")},
			map[Snapshot]ProviderCDN{Y2016: {Third: []string{"EdgeCast"}}, Y2020: {Private: true}}),
	)
	// CAs that moved from critical third-party DNS in 2016 to private DNS in
	// 2020 (Table 7 names GeoTrust and Symantec among the nine).
	movedPrivate := []struct {
		name, domain, dns16 string
		cdnAdopted          bool // no CDN in 2016, Akamai by 2020 (Table 8)
	}{
		{"GeoTrust", "geotrust.com", "UltraDNS", false},
		{"Thawte", "thawte.com", "UltraDNS", false},
		{"RapidSSL", "rapidssl.com", "UltraDNS", false},
		{"StartCom", "startssl.com", "AWS DNS", true},
		{"WoSign", "wosign.com", "DNSPod", true},
		{"Network Solutions CA", "netsolssl.com", "AWS DNS", false},
	}
	for _, m := range movedPrivate {
		cdn16 := ProviderCDN{Third: []string{"Akamai"}}
		if m.cdnAdopted {
			cdn16 = ProviderCDN{}
		}
		ps = append(ps, newCAProvider(m.name, m.domain,
			map[Snapshot]ProviderDNS{Y2016: third(m.dns16), Y2020: pvt()},
			map[Snapshot]ProviderCDN{Y2016: cdn16, Y2020: {Third: []string{"Akamai"}}}))
	}
	// Symantec's CA business was absorbed by DigiCert (§4.2, footnote 1).
	symantec := newCAProvider("Symantec", "symantec-ca.com",
		map[Snapshot]ProviderDNS{Y2016: third("Verisign DNS")},
		map[Snapshot]ProviderCDN{Y2016: {Third: []string{"Akamai"}}})
	symantec.Exists2020 = false
	ps = append(ps, symantec)

	return ps
}

// tailProvider creates the i-th procedural small provider of a service.
// mode splits tails into private-DNS and third-party-DNS cohorts so the
// Table 6 inter-service totals hold.
func tailProvider(svc Service, i int, dns map[Snapshot]ProviderDNS) *Provider {
	var p *Provider
	switch svc {
	case SvcDNS:
		p = newDNSProvider(fmt.Sprintf("DNS Tail %04d", i), fmt.Sprintf("tail-dns-%04d.net", i))
	case SvcCDN:
		domain := fmt.Sprintf("tail-cdn-%03d.net", i)
		p = newCDNProvider(fmt.Sprintf("CDN Tail %03d", i), domain, domain, dns)
	case SvcCA:
		p = newCAProvider(fmt.Sprintf("CA Tail %03d", i), fmt.Sprintf("tail-ca-%03d.net", i), dns, nil)
	}
	return p
}
