package ecosystem

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"strings"
)

// This file computes per-site content fingerprints over a materialized
// world: a stable hash of everything the measurement pipeline can observe
// about one site (its zone, brand-alias and PKI zones, certificate and
// landing page), folded with a world-level hash of the shared surface
// (provider zones, external zones, the CNAME→CDN map). Checkpointed runs
// use these to decide what survives a universe edit: a site whose
// fingerprint is unchanged keeps its checkpointed measurement, an edited
// site is re-measured, and any provider-side edit changes the world hash —
// and with it every site fingerprint — forcing a full re-measurement, since
// provider infrastructure is visible from every site's classification.

// Fingerprinter returns the content fingerprint function of the world.
// It needs every site's zones: it hashes the shared surface once, up front.
// The returned function then fingerprints one site from its zones,
// certificate and landing page as currently materialized, so a streamed
// run calls it while the site's page is live; a resident world's
// fingerprints equal a streamed one's. Fingerprints are deterministic
// across processes for the same materialized content, and the function is
// safe for concurrent use while the world is not being changed.
func (w *World) Fingerprinter() func(site string) string {
	surface := w.surfaceHash()
	return func(site string) string { return w.fingerprintSite(surface, site) }
}

// surfaceHash hashes the world surface every site fingerprint folds in:
// every zone not owned by a site, plus the CNAME→CDN map and the snapshot
// identity. Site zones add CNAME→CDN entries, so it needs every site's zones.
func (w *World) surfaceHash() []byte {
	owned := make(map[string]bool, 3*len(w.Sites))
	for _, d := range w.Sites {
		for _, origin := range siteOrigins(d) {
			owned[origin] = true
		}
	}
	wh := sha256.New()
	fmt.Fprintf(wh, "snapshot=%s scale=%d\n", w.Snapshot, w.Scale)
	for _, origin := range w.Zones.Origins() {
		if owned[origin] {
			continue
		}
		hashZone(wh, w, origin)
	}
	cnames := make([]string, 0, len(w.CNAMEToCDN))
	for suffix, name := range w.CNAMEToCDN {
		cnames = append(cnames, suffix+"→"+name)
	}
	sort.Strings(cnames)
	for _, line := range cnames {
		fmt.Fprintln(wh, line)
	}
	return wh.Sum(nil)
}

// fingerprintSite folds the surface hash with one site's zones,
// certificate and landing page.
func (w *World) fingerprintSite(surface []byte, d string) string {
	h := sha256.New()
	h.Write(surface)
	for _, origin := range siteOrigins(d) {
		hashZone(h, w, origin)
	}
	if c := w.Certs.Get(d); c != nil {
		fmt.Fprintf(h, "cert subject=%s issuer=%s org=%s stapled=%t sans=%s ocsp=%s cdp=%s\n",
			c.Subject, c.IssuerCA, c.IssuerOrgDomain, c.Stapled,
			strings.Join(c.SANs, ","),
			strings.Join(c.OCSPServers, ","),
			strings.Join(c.CRLDistributionPoints, ","))
	}
	if p := w.Page(d); p != nil {
		fmt.Fprintln(h, p.RenderHTML())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// siteOrigins lists the zone origins attributable to one site: its own
// domain plus the derived brand-alias and PKI domains (which exist only for
// some sites; absent zones simply contribute nothing).
func siteOrigins(domain string) []string {
	base := domain
	if i := strings.IndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	return []string{
		domain + ".",
		base + "-brand.net.",
		base + "-pki.net.",
	}
}

// hashZone folds one zone's canonical zone-file rendering into h; a missing
// zone contributes a marker so present-vs-absent is distinguishable.
func hashZone(h hash.Hash, w *World, origin string) {
	z := w.Zones.Zone(origin)
	if z == nil {
		fmt.Fprintf(h, "zone %s absent\n", origin)
		return
	}
	fmt.Fprintf(h, "zone %s\n", origin)
	if _, err := z.WriteTo(h); err != nil {
		// WriteTo can only fail on unrenderable record types, which the
		// generator never emits; fold the error so the fingerprint still
		// changes rather than silently matching.
		fmt.Fprintf(h, "zone %s error %v\n", origin, err)
	}
}
