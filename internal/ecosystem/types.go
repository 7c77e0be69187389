// Package ecosystem generates the synthetic Internet the measurement
// pipeline runs against: ranked website lists for the 2016 and 2020
// snapshots, the third-party provider universe (DNS, CDN, CA), and the
// concrete artifacts the paper's methodology interrogates — DNS zones,
// certificates and landing pages.
//
// The generator is calibrated (calibration.go) against the aggregates the
// paper reports, then the pipeline in internal/measure re-discovers the
// dependency structure from the artifacts alone. Ground-truth labels are
// kept on the Site structs purely for validation tests, mirroring the
// paper's manually-verified 100-site samples.
package ecosystem

import "fmt"

// Snapshot selects one of the two measurement years.
type Snapshot int

// The two snapshots of the study.
const (
	Y2016 Snapshot = iota
	Y2020
)

// String returns the year.
func (s Snapshot) String() string {
	if s == Y2016 {
		return "2016"
	}
	return "2020"
}

// Service is an infrastructure service type.
type Service int

// Service types under study.
const (
	SvcDNS Service = iota
	SvcCDN
	SvcCA
)

// String names the service.
func (s Service) String() string {
	switch s {
	case SvcDNS:
		return "DNS"
	case SvcCDN:
		return "CDN"
	case SvcCA:
		return "CA"
	}
	return fmt.Sprintf("Service(%d)", int(s))
}

// DepMode describes how an actor uses providers of one service.
type DepMode int

// Dependency modes. The paper's redundancy analysis distinguishes exactly
// these: no use, private-only, a single third party (critical), multiple
// third parties, and private-plus-third (both redundant).
const (
	DepNone DepMode = iota
	DepPrivate
	DepSingleThird
	DepMultiThird
	DepPrivatePlusThird
)

// String names the mode.
func (m DepMode) String() string {
	switch m {
	case DepNone:
		return "none"
	case DepPrivate:
		return "private"
	case DepSingleThird:
		return "single-third"
	case DepMultiThird:
		return "multi-third"
	case DepPrivatePlusThird:
		return "private+third"
	}
	return fmt.Sprintf("DepMode(%d)", int(m))
}

// UsesThird reports whether any third-party provider is involved.
func (m DepMode) UsesThird() bool {
	return m == DepSingleThird || m == DepMultiThird || m == DepPrivatePlusThird
}

// Provider is a third-party infrastructure provider.
type Provider struct {
	// Name is the display name, e.g. "Cloudflare".
	Name string
	// Service is what it sells.
	Service Service
	// Domain is the provider's organisational registrable domain
	// (e.g. "cloudflare.com"); nameserver hosts and OCSP/CDP hosts live
	// under it (or under NSDomains aliases).
	Domain string
	// NSDomains are the registrable domains its nameserver hosts use. Most
	// providers have one; same-entity aliases (the paper's alicdn.com /
	// alibabadns.com example) have several sharing one SOA MName.
	NSDomains []string
	// CNAMESuffix is the CDN edge-name suffix (CDN providers only),
	// e.g. "cloudfront.net": customers CNAME to <token>.<suffix>.
	CNAMESuffix string
	// OCSPHost and CDPHost are the revocation endpoints (CA providers only).
	OCSPHost, CDPHost string

	// DNSDeps maps snapshot to this provider's own DNS dependency: the
	// provider names of third-party DNS providers it uses. Empty slice with
	// Private true means a private DNS; both set means private+third.
	DNSDeps map[Snapshot]ProviderDNS
	// CDNDeps maps snapshot to the CDNs fronting this provider's
	// infrastructure (CAs: their OCSP/CDP endpoints).
	CDNDeps map[Snapshot]ProviderCDN

	// Exists2016/Exists2020 bound the provider's lifetime (Symantec's CA
	// business disappears into DigiCert between the snapshots).
	Exists2016, Exists2020 bool
}

// ProviderDNS is a provider's own DNS arrangement in one snapshot.
type ProviderDNS struct {
	Private bool     // runs nameservers under its own domain
	Third   []string // names of third-party DNS providers used
}

// ProviderCDN is a provider's own CDN arrangement in one snapshot.
type ProviderCDN struct {
	Private bool
	Third   []string
}

// TrapKind marks deliberately hard classification cases planted by the
// generator. They reproduce the paper's named corner cases and drive the
// heuristic-accuracy validation.
type TrapKind int

// Trap kinds.
const (
	TrapNone TrapKind = iota
	// TrapVanityNS: private DNS behind a brand-alias domain covered only by
	// the site's SAN list (the youtube.com / *.google.com case). TLD-only
	// classification overestimates third-party here.
	TrapVanityNS
	// TrapSOAEqual: the site's SOA points at its (large) third-party DNS
	// provider, so SOA comparison says "same authority". Only the
	// concentration rule classifies it (the twitter.com / Dyn case).
	TrapSOAEqual
	// TrapUnknown: SOA points at a small provider (concentration < 50):
	// the pair stays uncharacterized and the site is excluded, reproducing
	// the paper's 18% exclusion.
	TrapUnknown
	// TrapAliasRedundant: two nameserver domains that look independent but
	// share an SOA MNAME (the alicdn.com / alibabadns.com case): naive
	// redundancy detection overcounts.
	TrapAliasRedundant
	// TrapPrivateCDNAlias: a private CDN on an off-brand domain covered by
	// the SAN list (the yahoo.com / yimg.com case).
	TrapPrivateCDNAlias
	// TrapPrivateCDNForeignSOA: a private CDN whose zone SOA points at a
	// third-party DNS provider (the instagram / Facebook-CDN-on-AWS-SOA
	// case). SOA-only classification overestimates third-party CDNs.
	TrapPrivateCDNForeignSOA
)

// SiteSnapshot is a website's ground-truth configuration in one snapshot.
type SiteSnapshot struct {
	// Exists reports whether the site resolves at all in this snapshot.
	Exists bool

	// DNSMode and DNSProviders describe the authoritative-DNS arrangement.
	DNSMode      DepMode
	DNSProviders []string
	// DNSTrap marks a planted DNS classification corner case.
	DNSTrap TrapKind

	// HTTPS, CA and Stapled describe the certificate arrangement. PrivateCA
	// marks an organisation-owned CA.
	HTTPS     bool
	CA        string
	PrivateCA bool
	Stapled   bool
	// PrivateCAAlias places the private CA on a brand-alias pki domain
	// covered by the SAN list (the Google Trust Services / pki.goog case).
	PrivateCAAlias bool
	// PrivateCAThirdCDN / PrivateCAThirdDNS mark private CAs that themselves
	// ride a third-party CDN or DNS (the microsoft.com / godaddy.com cases
	// of §5.1–§5.2).
	PrivateCAThirdCDN, PrivateCAThirdDNS bool

	// CDNMode and CDNProviders describe content delivery. PrivateCDN marks
	// an organisation-owned CDN (on the site's alias domain).
	CDNMode      DepMode
	CDNProviders []string
	PrivateCDN   bool
	// CDNTrap marks a planted CDN classification corner case.
	CDNTrap TrapKind
}

// Site is one website across both snapshots.
type Site struct {
	// Domain is the site's registrable domain.
	Domain string
	// Rank2016 and Rank2020 are the positions on the respective lists;
	// zero means absent from that list.
	Rank2016, Rank2020 int
	// Snap holds the per-snapshot ground truth, indexed by Snapshot.
	Snap [2]SiteSnapshot
}

// AliasDomain returns the site's secondary brand domain used by vanity-NS
// and private-CDN-alias traps (e.g. yimg.com for yahoo.com).
func (s *Site) AliasDomain() string {
	base := s.Domain
	if i := indexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	return base + "-brand.net"
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// Universe is the full generated world: all sites (union of both lists) and
// all providers, with ground truth attached.
type Universe struct {
	// Scale is the length of each snapshot's ranked list.
	Scale int
	// Seed reproduces the generation.
	Seed int64
	// Sites holds every site on either list.
	Sites []*Site
	// Providers holds every provider, keyed by name.
	Providers map[string]*Provider

	providerOrder []string
	list2016      []*Site
	list2020      []*Site
}

// List returns the ranked website list of a snapshot (rank 1 first).
func (u *Universe) List(snap Snapshot) []*Site {
	if snap == Y2016 {
		return u.list2016
	}
	return u.list2020
}
