package ecosystem

import (
	"depscope/internal/certs"
	"depscope/internal/chain"
	"depscope/internal/dnszone"
	"depscope/internal/webpage"
)

// Chunked is the materializer every measured run drives: it builds a
// snapshot's world in batches so that landing pages never need to be
// resident at once. Zones, certificates and the CNAME→CDN map are fully
// resident once added — the measurement's inter-service passes and the
// validation baselines resolve against them after the site sweep — but
// pages exist only between MaterializePages and ReleasePages for one batch
// at a time. Materialize is this type driven with a single batch, so a
// chunked world with all pages materialized is byte-identical to
// Materialize's output; the invariants tests pin this via SiteFingerprints
// and the page digests of TestPagesGolden.
//
// Each MaterializePages call builds its batch's pages through the shared
// page routine: in parallel over contiguous chunks of the batch, one RNG
// per task reseeded per site, inserted into World.Pages in rank order.
//
// The driving sequence (see analysis.Execute):
//
//	c := NewChunked(u, snap)
//	c.EnableChains(cfg)                  // optional, before any AddSites
//	for each batch: c.AddSites(lo, hi)   // zones + certs + CNAME entries
//	for each batch: ... resolve the batch ...
//	... seal the measurement ...
//	for each batch:
//	    c.MaterializePages(lo, hi)       // pages (+ chain growth)
//	    ... measure the batch ...
//	    c.ReleasePages(lo, hi)
//
// A checkpointed run calls SiteFingerprints once every batch's zones are
// added, before the measurement starts.
type Chunked struct {
	m       *materializer
	pending []*Site    // existing sites of the snapshot, rank order
	chains  *chainPlan // nil until EnableChains with an enabled config
}

// NewChunked builds the base world — provider and external zones — and the
// ranked list of sites to stream. No site data is materialized yet.
func NewChunked(u *Universe, snap Snapshot) *Chunked {
	w := &World{
		Snapshot:   snap,
		Scale:      u.Scale,
		Zones:      dnszone.NewStore(),
		Certs:      certs.NewStore(),
		Pages:      make(map[string]*webpage.Page),
		CNAMEToCDN: make(map[string]string),
	}
	c := &Chunked{m: &materializer{u: u, w: w, snap: snap}, pending: existingSites(u, snap)}
	c.m.providerZones()
	c.m.externalZones()
	return c
}

// existingSites returns the sites that exist in snap, in rank order — the
// order of World.Sites.
func existingSites(u *Universe, snap Snapshot) []*Site {
	var out []*Site
	for _, site := range u.List(snap) {
		if site.Snap[snap].Exists {
			out = append(out, site)
		}
	}
	return out
}

// World returns the (incrementally filled) world. Sites appear in it as
// AddSites materializes their zones.
func (c *Chunked) World() *World { return c.m.w }

// Len returns the number of sites the stream will materialize.
func (c *Chunked) Len() int { return len(c.pending) }

// SiteNames returns the full ranked site-name list without materializing
// anything — the measurement stream needs it up front to size its result
// table.
func (c *Chunked) SiteNames() []string {
	names := make([]string, len(c.pending))
	for i, s := range c.pending {
		names[i] = s.Domain
	}
	return names
}

// EnableChains switches on chain materialization: the vendor universe's
// zones are added to the world now, and MaterializePages grows per-page
// chains with the same per-site seeded RNG stream as MaterializeChains —
// chain content is a pure function of (universe, cfg, site), so batch
// boundaries cannot perturb it. A disabled cfg is a no-op, matching
// MaterializeChains. It must be called before the first AddSites, and
// panics otherwise: a late call would leave earlier batches without
// chains while still producing a report.
func (c *Chunked) EnableChains(cfg chain.Config) {
	if len(c.m.w.Sites) > 0 {
		panic("ecosystem: Chunked.EnableChains after AddSites")
	}
	c.chains = c.m.vendorZones(cfg)
}

// AddSites materializes zones, certificates and CNAME→CDN entries for the
// ranked site range [lo, hi) and appends the names to World.Sites. Ranges
// must be fed in order, exactly once, starting at 0.
func (c *Chunked) AddSites(lo, hi int) {
	if lo != len(c.m.w.Sites) {
		panic("ecosystem: Chunked.AddSites ranges must be contiguous from 0")
	}
	for _, s := range c.pending[lo:hi] {
		c.m.siteZone(s)
		c.m.w.Sites = append(c.m.w.Sites, s.Domain)
	}
}

// MaterializePages materializes landing pages (plus chain growth when
// enabled) for the site range [lo, hi). The range must already have been
// through AddSites.
func (c *Chunked) MaterializePages(lo, hi int) {
	if hi > len(c.m.w.Sites) {
		panic("ecosystem: Chunked.MaterializePages before AddSites")
	}
	c.m.buildPages(c.pending[lo:hi], c.chains)
}

// ReleasePages drops the landing pages of the site range [lo, hi) so the
// batch's page memory can be collected.
func (c *Chunked) ReleasePages(lo, hi int) {
	for _, s := range c.pending[lo:hi] {
		delete(c.m.w.Pages, s.Domain)
	}
}

// SiteFingerprints returns every site's content fingerprint, equal to
// World.SiteFingerprints of the same world with every page resident. It
// needs every site's zones (the surface hash covers the CNAME→CDN entries
// site zones add) and no live pages: it hashes the surface once, then
// materializes, fingerprints and releases the pages batch by batch; a batch
// below 1 means one batch of every site.
func (c *Chunked) SiteFingerprints(batch int) map[string]string {
	w, n := c.m.w, c.Len()
	if len(w.Sites) != n || len(w.Pages) != 0 {
		panic("ecosystem: Chunked.SiteFingerprints needs every site's zones and no live pages")
	}
	if batch < 1 {
		batch = n
	}
	surface := w.surfaceHash()
	out := make(map[string]string, n)
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		c.MaterializePages(lo, hi)
		w.fingerprintSites(surface, w.Sites[lo:hi], out)
		c.ReleasePages(lo, hi)
	}
	return out
}
