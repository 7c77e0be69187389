// Package certs models the certificate-and-revocation view the measurement
// pipeline needs: for each HTTPS website, the issuing CA, the subject
// alternative names, the OCSP responder and CRL distribution point URLs
// embedded in the certificate, and whether the server staples OCSP
// responses.
//
// Two sources can populate a Certificate: the bulk path reads the synthetic
// ecosystem's certificate store directly, and the live path (x509gen.go)
// performs a real crypto/tls handshake against a server and extracts the
// same fields from the wire, proving the extraction logic on genuine
// material — the reproduction of the paper's OpenSSL-based fetch.
package certs

import (
	"net/url"
	"strings"
	"sync"
	"time"

	"depscope/internal/publicsuffix"
)

// Certificate is the measurement-relevant view of one site certificate.
type Certificate struct {
	// Subject is the primary hostname the certificate was served for.
	Subject string
	// SANs is the subject-alternative-name list (may contain wildcards).
	SANs []string
	// IssuerCA is the display name of the issuing certificate authority.
	IssuerCA string
	// IssuerOrgDomain is the CA's organisational domain (e.g. digicert.com),
	// as derived from the issuer fields; "" if unknown.
	IssuerOrgDomain string
	// OCSPServers holds the OCSP responder URLs from the AIA extension.
	OCSPServers []string
	// CRLDistributionPoints holds the CDP URLs.
	CRLDistributionPoints []string
	// Stapled reports whether the TLS handshake carried a stapled OCSP
	// response.
	Stapled bool
	// NotBefore and NotAfter bound the validity period.
	NotBefore, NotAfter time.Time

	// Lazily computed views of the fields above, shared across the three
	// classifier stages that consult the same certificate for one site. The
	// cached values are computed from fields that must not change after the
	// certificate enters a Store.
	sanOnce sync.Once
	sanRDs  map[string]bool
	revOnce sync.Once
	revIdx  []string
}

// RevocationURLs returns all revocation-checking endpoints (OCSP then CDP).
func (c *Certificate) RevocationURLs() []string {
	out := make([]string, 0, len(c.OCSPServers)+len(c.CRLDistributionPoints))
	out = append(out, c.OCSPServers...)
	out = append(out, c.CRLDistributionPoints...)
	return out
}

// RevocationHosts returns the distinct hostnames of all revocation URLs in
// first-seen order. The result is computed once per certificate and shared;
// callers must not modify it.
func (c *Certificate) RevocationHosts() []string {
	c.revOnce.Do(func() {
		seen := make(map[string]bool)
		var out []string
		for _, u := range c.RevocationURLs() {
			h := HostFromURL(u)
			if h == "" || seen[h] {
				continue
			}
			seen[h] = true
			out = append(out, h)
		}
		c.revIdx = out
	})
	return c.revIdx
}

// MatchesSAN reports whether host is covered by the certificate's SAN list,
// honouring single-label wildcards (*.example.com).
func (c *Certificate) MatchesSAN(host string) bool {
	host = publicsuffix.Normalize(host)
	for _, san := range c.SANs {
		if sanMatches(san, host) {
			return true
		}
	}
	return false
}

// SANRegistrableDomains returns the distinct registrable domains appearing
// in the SAN list. The paper's heuristics treat every eTLD+1 in a site's SAN
// list as the same logical entity as the site. The map is computed once per
// certificate and shared; callers must not modify it.
func (c *Certificate) SANRegistrableDomains() map[string]bool {
	c.sanOnce.Do(func() {
		out := make(map[string]bool, len(c.SANs))
		for _, san := range c.SANs {
			if rd := publicsuffix.RegistrableDomain(san); rd != "" {
				out[rd] = true
			}
		}
		c.sanRDs = out
	})
	return c.sanRDs
}

func sanMatches(san, host string) bool {
	san = strings.ToLower(strings.TrimSuffix(strings.TrimSpace(san), "."))
	if strings.HasPrefix(san, "*.") {
		rest := san[2:]
		idx := strings.IndexByte(host, '.')
		return idx > 0 && host[idx+1:] == rest
	}
	return san == host
}

// HostFromURL extracts the lowercase hostname of an http(s) URL, tolerating
// bare host[:port] strings as found in some CDP fields.
func HostFromURL(raw string) string {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return ""
	}
	if !strings.Contains(raw, "://") {
		raw = "http://" + raw
	}
	u, err := url.Parse(raw)
	if err != nil {
		return ""
	}
	return publicsuffix.Normalize(u.Hostname())
}

// Store is a concurrency-safe certificate repository keyed by site host.
// It stands in for "connect to the site on :443 and read the certificate"
// in the bulk pipeline.
type Store struct {
	mu    sync.RWMutex
	certs map[string]*Certificate
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{certs: make(map[string]*Certificate)}
}

// Put installs the certificate served for host.
func (s *Store) Put(host string, c *Certificate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.certs[publicsuffix.Normalize(host)] = c
}

// Get returns the certificate served for host, or nil when the host does
// not speak HTTPS. Lookup is by exact (normalized) host; a wildcard match
// against another host's SAN list is not a serving relationship.
func (s *Store) Get(host string) *Certificate {
	host = publicsuffix.Normalize(host)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.certs[host]
}
