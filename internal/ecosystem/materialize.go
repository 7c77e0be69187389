package ecosystem

import (
	"strings"

	"depscope/internal/certs"
	"depscope/internal/dnsmsg"
	"depscope/internal/dnszone"
	"depscope/internal/resolver"
	"depscope/internal/webpage"
)

// World is a fully materialized snapshot: everything the measurement
// pipeline may interrogate. Ground truth stays behind in the Universe.
type World struct {
	Snapshot Snapshot
	Scale    int
	// Sites is the ranked site list (rank 1 first).
	Sites []string
	// Zones answers every DNS question of the snapshot.
	Zones *dnszone.Store
	// Certs holds the certificate served by each HTTPS site.
	Certs *certs.Store
	// Pages holds each site's landing page.
	Pages map[string]*webpage.Page
	// CNAMEToCDN is the self-populated CNAME-suffix → CDN-name map of the
	// paper's §3.3, including the known private CDNs.
	CNAMEToCDN map[string]string
	// Streamed marks a world built by the chunked/streaming path: landing
	// pages are materialized per batch and released after measurement, so
	// Pages must not be relied on after the run. Consumers that re-measure
	// (ablations, sweeps) check this flag and fail with a clear error
	// instead of silently measuring a page-less world.
	Streamed bool
}

// Page returns the landing page of site, or nil.
func (w *World) Page(site string) *webpage.Page { return w.Pages[site] }

// NewResolver returns a caching resolver answering from this world's zones
// in-process.
func (w *World) NewResolver() *resolver.Resolver {
	return resolver.New(resolver.ZoneDirect{Store: w.Zones})
}

// externalDomains are shared third-party content hosts referenced from
// landing pages; they are not infrastructure providers and the pipeline
// must classify them as external resources and skip them.
var externalDomains = []string{"ext-analytics.com", "ext-fonts.net", "ext-widgets.org"}

// Materialize renders the snapshot's artifacts from the universe's ground
// truth: provider zones, site zones, certificates, landing pages and the
// CNAME→CDN map. It is the streaming materializer (Chunked) driven with one
// batch covering every site, with no page released.
func Materialize(u *Universe, snap Snapshot) *World {
	c := newChunked(u, snap)
	c.AddSites(0, c.Len())
	c.MaterializePages(0, c.Len())
	return c.World()
}

type materializer struct {
	u    *Universe
	w    *World
	snap Snapshot
}

func (m *materializer) exists(p *Provider) bool {
	if m.snap == Y2016 {
		return p.Exists2016
	}
	return p.Exists2020
}

// nsHosts returns the nameserver host names a provider exposes.
func nsHosts(p *Provider) []string {
	var out []string
	for _, d := range p.NSDomains {
		out = append(out, "ns1."+d+".", "ns2."+d+".")
	}
	return out
}

// soaFor builds a provider zone's SOA: the MName is the provider's first
// nameserver so that alias NS domains (Alibaba) share one MName.
func soaFor(p *Provider) dnsmsg.SOAData {
	return dnsmsg.SOAData{
		MName:  "ns1." + p.NSDomains[0] + ".",
		RName:  "ops." + p.NSDomains[0] + ".",
		Serial: 2020010101, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300,
	}
}

// dnsDep returns the provider's DNS arrangement in this snapshot.
func (m *materializer) dnsDep(p *Provider) ProviderDNS {
	if d, ok := p.DNSDeps[m.snap]; ok {
		return d
	}
	return ProviderDNS{Private: true}
}

// cdnDep returns the provider's CDN arrangement in this snapshot.
func (m *materializer) cdnDep(p *Provider) ProviderCDN {
	if d, ok := p.CDNDeps[m.snap]; ok {
		return d
	}
	return ProviderCDN{}
}

// zoneNS installs NS records (and glue A records for in-zone hosts) for an
// arrangement: private names under ownDomain plus each third provider's
// hosts.
func (m *materializer) zoneNS(z *dnszone.Zone, origin, ownDomain string, dep ProviderDNS) {
	addNS := func(host string) {
		z.MustAdd(dnsmsg.Record{Name: origin, Type: dnsmsg.TypeNS, TTL: 86400, Target: host})
	}
	if dep.Private || len(dep.Third) == 0 {
		for _, h := range []string{"ns1." + ownDomain + ".", "ns2." + ownDomain + "."} {
			addNS(h)
			if dnszone.InBailiwick(h, z.Origin) {
				z.MustAdd(dnsmsg.Record{Name: h, Type: dnsmsg.TypeA, TTL: 86400, IP: []byte{198, 51, 100, 53}})
			}
		}
	}
	for _, depName := range dep.Third {
		dp := m.u.Providers[depName]
		if dp == nil {
			panic("ecosystem: unknown DNS dependency " + depName)
		}
		for _, h := range nsHosts(dp) {
			addNS(h)
		}
	}
}

// providerZones materializes all provider infrastructure.
func (m *materializer) providerZones() {
	for _, name := range m.u.providerOrder {
		p := m.u.Providers[name]
		if !m.exists(p) {
			continue
		}
		switch p.Service {
		case SvcDNS:
			m.dnsProviderZones(p)
		case SvcCDN:
			m.cdnProviderZones(p)
		case SvcCA:
			m.caProviderZones(p)
		}
	}
}

func (m *materializer) dnsProviderZones(p *Provider) {
	for _, d := range p.NSDomains {
		z := dnszone.NewZone(d+".", soaFor(p))
		z.MustAdd(dnsmsg.Record{Name: d + ".", Type: dnsmsg.TypeNS, TTL: 86400, Target: "ns1." + d + "."})
		z.MustAdd(dnsmsg.Record{Name: d + ".", Type: dnsmsg.TypeNS, TTL: 86400, Target: "ns2." + d + "."})
		z.MustAdd(dnsmsg.Record{Name: "ns1." + d + ".", Type: dnsmsg.TypeA, TTL: 86400, IP: []byte{203, 0, 113, 10}})
		z.MustAdd(dnsmsg.Record{Name: "ns2." + d + ".", Type: dnsmsg.TypeA, TTL: 86400, IP: []byte{203, 0, 113, 11}})
		m.w.Zones.AddZone(z)
	}
}

// suffixZoneOrigin maps a CNAME suffix to its zone origin (its registrable
// domain part — suffixes may have extra labels like cdn.cloudflare.net).
func suffixZoneOrigin(suffix string) string {
	labels := strings.Split(suffix, ".")
	if len(labels) <= 2 {
		return suffix
	}
	return strings.Join(labels[len(labels)-2:], ".")
}

func (m *materializer) cdnProviderZones(p *Provider) {
	origin := suffixZoneOrigin(p.CNAMESuffix) + "."
	soa := soaFor(p)
	dep := m.dnsDep(p)
	z := dnszone.NewZone(origin, soa)
	m.zoneNS(z, origin, p.Domain, dep)
	z.MustAdd(dnsmsg.Record{Name: origin, Type: dnsmsg.TypeA, TTL: 300, IP: []byte{198, 51, 100, 80}})
	z.MustAdd(dnsmsg.Record{Name: "*." + p.CNAMESuffix + ".", Type: dnsmsg.TypeA, TTL: 60, IP: []byte{198, 51, 100, 81}})
	m.w.Zones.AddZone(z)
	m.w.CNAMEToCDN[p.CNAMESuffix] = p.Name
	// The provider's corporate domain, when distinct from the suffix zone.
	if p.Domain != suffixZoneOrigin(p.CNAMESuffix) {
		cz := dnszone.NewZone(p.Domain+".", soaFor(p))
		m.zoneNS(cz, p.Domain+".", p.Domain, dep)
		m.w.Zones.AddZone(cz)
	}
}

func (m *materializer) caProviderZones(p *Provider) {
	soa := soaFor(p)
	dep := m.dnsDep(p)
	cdn := m.cdnDep(p)
	z := dnszone.NewZone(p.Domain+".", soa)
	m.zoneNS(z, p.Domain+".", p.Domain, dep)
	for _, host := range []string{p.OCSPHost, p.CDPHost} {
		name := host + "."
		switch {
		case len(cdn.Third) > 0:
			cp := m.u.Providers[cdn.Third[0]]
			z.MustAdd(dnsmsg.Record{Name: name, Type: dnsmsg.TypeCNAME, TTL: 300,
				Target: "rev-" + slugOf(p.Name) + "." + cp.CNAMESuffix + "."})
		case cdn.Private:
			// Private CDN: CNAME into the CA's own edge namespace, which
			// shares the zone's SOA.
			edge := "edge-cdn." + p.Domain + "."
			z.MustAdd(dnsmsg.Record{Name: name, Type: dnsmsg.TypeCNAME, TTL: 300, Target: edge})
			z.MustAdd(dnsmsg.Record{Name: edge, Type: dnsmsg.TypeA, TTL: 300, IP: []byte{198, 51, 100, 90}})
			m.w.CNAMEToCDN["edge-cdn."+p.Domain] = p.Name + " private CDN"
		default:
			z.MustAdd(dnsmsg.Record{Name: name, Type: dnsmsg.TypeA, TTL: 300, IP: []byte{198, 51, 100, 91}})
		}
	}
	m.w.Zones.AddZone(z)
}

func (m *materializer) externalZones() {
	for _, d := range externalDomains {
		z := dnszone.NewZone(d+".", dnsmsg.SOAData{
			MName: "ns1." + d + ".", RName: "ops." + d + ".",
			Serial: 1, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300,
		})
		z.MustAdd(dnsmsg.Record{Name: d + ".", Type: dnsmsg.TypeNS, TTL: 86400, Target: "ns1." + d + "."})
		z.MustAdd(dnsmsg.Record{Name: "ns1." + d + ".", Type: dnsmsg.TypeA, TTL: 86400, IP: []byte{203, 0, 113, 99}})
		z.MustAdd(dnsmsg.Record{Name: "*." + d + ".", Type: dnsmsg.TypeA, TTL: 300, IP: []byte{203, 0, 113, 98}})
		m.w.Zones.AddZone(z)
	}
}

// pkiDomain is the brand-alias PKI domain of a private-CA site.
func pkiDomain(site *Site) string {
	base := site.Domain
	if i := strings.IndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	return base + "-pki.net"
}

// siteInternalHosts returns the site-owned hosts its landing page loads
// assets from — the coupling point between the zone half (which wires the
// hosts into DNS) and the page half (which references them). It is a pure
// function of the snapshot state so both halves compute identical lists.
func siteInternalHosts(s *Site, ss *SiteSnapshot) []string {
	d := s.Domain
	hosts := []string{"www." + d}
	if ss.CDNMode != DepNone {
		hosts = append(hosts, "static."+d)
	}
	switch {
	case ss.PrivateCDN && (ss.CDNTrap == TrapPrivateCDNAlias || ss.CDNTrap == TrapPrivateCDNForeignSOA):
		hosts = append(hosts, "img."+s.AliasDomain())
	case ss.PrivateCDN:
		hosts = append(hosts, "cdn."+d)
	}
	return hosts
}

// siteZone materializes one website's DNS zone(s), CNAME→CDN entries and
// certificate — everything except the landing page.
func (m *materializer) siteZone(s *Site) {
	ss := s.Snap[m.snap]
	d := s.Domain
	origin := d + "."

	// --- SOA selection per the trap semantics (see assign.go) ---
	soa := dnsmsg.SOAData{
		MName: "ns1." + d + ".", RName: "hostmaster." + d + ".",
		Serial: 2020010101, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300,
	}
	switch ss.DNSTrap {
	case TrapSOAEqual, TrapUnknown:
		// The zone's declared master is the provider's nameserver: SOA
		// comparison against the provider's own zone then matches.
		p := m.u.Providers[ss.DNSProviders[0]]
		soa.MName = "ns1." + p.NSDomains[0] + "."
	case TrapVanityNS:
		soa.MName = "ns1." + s.AliasDomain() + "."
	}
	z := dnszone.NewZone(origin, soa)

	// --- NS records ---
	switch ss.DNSMode {
	case DepPrivate:
		nsDomain := d
		if ss.DNSTrap == TrapVanityNS {
			nsDomain = s.AliasDomain()
		}
		for _, h := range []string{"ns1." + nsDomain + ".", "ns2." + nsDomain + "."} {
			z.MustAdd(dnsmsg.Record{Name: origin, Type: dnsmsg.TypeNS, TTL: 86400, Target: h})
			if dnszone.InBailiwick(h, origin) {
				z.MustAdd(dnsmsg.Record{Name: h, Type: dnsmsg.TypeA, TTL: 86400, IP: []byte{198, 51, 100, 53}})
			}
		}
	case DepPrivatePlusThird:
		z.MustAdd(dnsmsg.Record{Name: origin, Type: dnsmsg.TypeNS, TTL: 86400, Target: "ns1." + d + "."})
		z.MustAdd(dnsmsg.Record{Name: "ns1." + d + ".", Type: dnsmsg.TypeA, TTL: 86400, IP: []byte{198, 51, 100, 53}})
		fallthrough
	case DepSingleThird, DepMultiThird:
		for _, pname := range ss.DNSProviders {
			p := m.u.Providers[pname]
			if p == nil {
				panic("ecosystem: site " + d + " uses unknown provider " + pname)
			}
			for _, h := range nsHosts(p) {
				z.MustAdd(dnsmsg.Record{Name: origin, Type: dnsmsg.TypeNS, TTL: 86400, Target: h})
			}
		}
	}

	z.MustAdd(dnsmsg.Record{Name: origin, Type: dnsmsg.TypeA, TTL: 300, IP: []byte{192, 0, 2, 1}})

	// --- CDN wiring for the page's internal hosts ---
	internalHosts := siteInternalHosts(s, &ss)
	needsAlias := ss.DNSTrap == TrapVanityNS ||
		ss.CDNTrap == TrapPrivateCDNAlias || ss.CDNTrap == TrapPrivateCDNForeignSOA

	switch {
	case ss.PrivateCDN && (ss.CDNTrap == TrapPrivateCDNAlias || ss.CDNTrap == TrapPrivateCDNForeignSOA):
		// Content rides the alias-domain CDN (yahoo/yimg, instagram).
		m.w.CNAMEToCDN[s.AliasDomain()] = d + " private CDN"
		z.MustAdd(dnsmsg.Record{Name: "www." + d + ".", Type: dnsmsg.TypeA, TTL: 300, IP: []byte{192, 0, 2, 2}})
	case ss.PrivateCDN:
		// In-domain private CDN: cdn.<site> is both suffix and target.
		host := "cdn." + d
		m.w.CNAMEToCDN[host] = d + " private CDN"
		z.MustAdd(dnsmsg.Record{Name: host + ".", Type: dnsmsg.TypeA, TTL: 300, IP: []byte{192, 0, 2, 3}})
		z.MustAdd(dnsmsg.Record{Name: "www." + d + ".", Type: dnsmsg.TypeA, TTL: 300, IP: []byte{192, 0, 2, 2}})
	case ss.CDNMode != DepNone:
		// Third-party CDNs: spread the internal hosts over the providers.
		for i, host := range internalHosts {
			p := m.u.Providers[ss.CDNProviders[i%len(ss.CDNProviders)]]
			z.MustAdd(dnsmsg.Record{
				Name: host + ".", Type: dnsmsg.TypeCNAME, TTL: 300,
				Target: "c-" + slugOf(d) + "." + p.CNAMESuffix + ".",
			})
		}
	default:
		z.MustAdd(dnsmsg.Record{Name: "www." + d + ".", Type: dnsmsg.TypeA, TTL: 300, IP: []byte{192, 0, 2, 2}})
	}
	m.w.Zones.AddZone(z)

	// --- Alias-domain zone (vanity NS, private-CDN alias) ---
	if needsAlias {
		m.aliasZone(s, &ss)
	}

	// --- Certificate ---
	if ss.HTTPS {
		m.certificate(s, &ss, needsAlias)
	}
}

// aliasZone materializes the site's brand-alias domain.
func (m *materializer) aliasZone(s *Site, ss *SiteSnapshot) {
	alias := s.AliasDomain()
	origin := alias + "."
	soa := dnsmsg.SOAData{
		MName: "ns1." + alias + ".", RName: "hostmaster." + s.Domain + ".",
		Serial: 2020010101, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300,
	}
	dep := ProviderDNS{Private: true}
	if ss.CDNTrap == TrapPrivateCDNForeignSOA {
		// The private CDN's zone is operated by a third-party DNS provider
		// (twitter/instagram): SOA master and NS point off-org.
		dep = ProviderDNS{Third: []string{"AWS DNS"}}
		soa.MName = "ns1.awsdns.net."
	}
	z := dnszone.NewZone(origin, soa)
	m.zoneNS(z, origin, alias, dep)
	z.MustAdd(dnsmsg.Record{Name: "*." + origin, Type: dnsmsg.TypeA, TTL: 300, IP: []byte{192, 0, 2, 7}})
	m.w.Zones.AddZone(z)
}

// certificate materializes the site's certificate and, for private CAs, the
// PKI-domain infrastructure.
func (m *materializer) certificate(s *Site, ss *SiteSnapshot, hasAlias bool) {
	d := s.Domain
	sans := []string{d, "*." + d}
	if hasAlias {
		sans = append(sans, s.AliasDomain(), "*."+s.AliasDomain())
	}
	cert := &certs.Certificate{Subject: d, Stapled: ss.Stapled}

	switch {
	case !ss.PrivateCA:
		p := m.u.Providers[ss.CA]
		if p == nil {
			panic("ecosystem: site " + d + " uses unknown CA " + ss.CA)
		}
		cert.IssuerCA = p.Name
		cert.IssuerOrgDomain = p.Domain
		cert.OCSPServers = []string{"http://" + p.OCSPHost + "/status"}
		cert.CRLDistributionPoints = []string{"http://" + p.CDPHost + "/ca.crl"}
	case ss.PrivateCAAlias:
		pki := pkiDomain(s)
		sans = append(sans, pki, "*."+pki)
		cert.IssuerCA = d + " Trust Services"
		cert.IssuerOrgDomain = pki
		cert.OCSPServers = []string{"http://ocsp." + pki + "/status"}
		cert.CRLDistributionPoints = []string{"http://crl." + pki + "/ca.crl"}
		m.pkiZone(s, ss)
	default:
		cert.IssuerCA = d + " Internal CA"
		cert.IssuerOrgDomain = d
		cert.OCSPServers = []string{"http://ocsp." + d + "/status"}
		cert.CRLDistributionPoints = []string{"http://crl." + d + "/ca.crl"}
		if z := m.w.Zones.Zone(d + "."); z != nil {
			z.MustAdd(dnsmsg.Record{Name: "ocsp." + d + ".", Type: dnsmsg.TypeA, TTL: 300, IP: []byte{192, 0, 2, 8}})
			z.MustAdd(dnsmsg.Record{Name: "crl." + d + ".", Type: dnsmsg.TypeA, TTL: 300, IP: []byte{192, 0, 2, 8}})
		}
	}
	cert.SANs = sans
	m.w.Certs.Put(d, cert)
}

// pkiZone materializes a private CA's alias PKI domain, including its hidden
// third-party dependencies (§5.1/§5.2: godaddy.com, microsoft.com cases).
func (m *materializer) pkiZone(s *Site, ss *SiteSnapshot) {
	pki := pkiDomain(s)
	origin := pki + "."
	soa := dnsmsg.SOAData{
		// Same declared master as the site: the SOA heuristic sees one
		// logical operator (the pki.goog case).
		MName: "ns1." + s.Domain + ".", RName: "hostmaster." + s.Domain + ".",
		Serial: 2020010101, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300,
	}
	dep := ProviderDNS{Private: true}
	if ss.PrivateCAThirdDNS {
		dep = ProviderDNS{Third: []string{"Akamai Edge DNS"}}
	}
	z := dnszone.NewZone(origin, soa)
	m.zoneNS(z, origin, pki, dep)
	for _, host := range []string{"ocsp." + pki + ".", "crl." + pki + "."} {
		if ss.PrivateCAThirdCDN {
			akamai := m.u.Providers["Akamai"]
			z.MustAdd(dnsmsg.Record{Name: host, Type: dnsmsg.TypeCNAME, TTL: 300,
				Target: "rev-" + slugOf(pki) + "." + akamai.CNAMESuffix + "."})
		} else {
			z.MustAdd(dnsmsg.Record{Name: host, Type: dnsmsg.TypeA, TTL: 300, IP: []byte{192, 0, 2, 9}})
		}
	}
	m.w.Zones.AddZone(z)
}
