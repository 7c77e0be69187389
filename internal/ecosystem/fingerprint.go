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

// SiteFingerprints returns the content fingerprint of every site in the
// world, keyed by site domain. Fingerprints are deterministic across
// processes for the same materialized content. It is the one-batch case of
// Chunked.SiteFingerprints: every zone and landing page is resident.
func (w *World) SiteFingerprints() map[string]string {
	out := make(map[string]string, len(w.Sites))
	w.fingerprintSites(w.surfaceHash(), w.Sites, out)
	return out
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

// fingerprintSites stores into out the fingerprint of each of sites: the
// surface hash folded with the site's zones, certificate and landing page
// (as currently materialized).
func (w *World) fingerprintSites(surface []byte, sites []string, out map[string]string) {
	for _, d := range sites {
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
		out[d] = hex.EncodeToString(h.Sum(nil))
	}
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
