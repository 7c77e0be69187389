package ecosystem

import (
	"math/rand"

	"depscope/internal/conc"
	"depscope/internal/rng"
	"depscope/internal/webpage"
)

// This file is the one page routine: Materialize, MaterializeChains and
// Chunked.MaterializePages all build landing pages (and their chains)
// through buildPages.

// externalResources are the shared external objects every landing page
// loads after its own assets. Their strings are shared by all pages.
var externalResources = []webpage.Resource{
	{URL: "https://cdn." + externalDomains[0] + "/analytics.js", Host: "cdn." + externalDomains[0], FQDN: "cdn." + externalDomains[0] + "."},
	{URL: "https://fonts." + externalDomains[1] + "/font.woff2", Host: "fonts." + externalDomains[1], FQDN: "fonts." + externalDomains[1] + "."},
}

// pageChunk is how many rank-consecutive sites one page task builds: large
// enough to amortize the task's RNG, small enough that tasks balance
// across workers.
const pageChunk = 256

// buildPages builds the landing page of every site in sites — grown with
// chains when ch is non-nil — and stores them in World.Pages. Contiguous
// chunks of sites are built in parallel on the shared pool (GOMAXPROCS
// workers) into a slice indexed by rank, each task owning one RNG that it
// reseeds per site (an rng.Source: math/rand's stream with a jump-ahead
// Seed); the map inserts then run in rank order on the calling goroutine.
// A page is a pure function of (universe, snapshot, chain config, site), so
// the pages cannot depend on scheduling or worker count.
func (m *materializer) buildPages(sites []*Site, ch *chainPlan) {
	pages := make([]*webpage.Page, len(sites))
	conc.Do((len(sites)+pageChunk-1)/pageChunk, 0, func(t int) {
		b := pageBuilder{snap: m.snap, chains: ch}
		if ch != nil {
			b.rng = rand.New(rng.NewSource(ch.cfg.Seed))
		}
		lo := t * pageChunk
		for i := lo; i < min(lo+pageChunk, len(sites)); i++ {
			pages[i] = b.page(sites[i])
		}
	})
	for i, p := range pages {
		m.w.Pages[sites[i].Domain] = p
	}
}

// pageBuilder is one page task's state, reused across its sites.
type pageBuilder struct {
	snap   Snapshot
	chains *chainPlan // nil: no chain growth
	rng    *rand.Rand // reseeded per site from chainSeed

	frontier, next []int // growChains' level buffers
}

// page builds one website's landing page: an asset per internal host
// (recomputed from the same snapshot state siteZone wired into DNS) plus
// the shared external resources, then its chains. Hosts are known, so
// resources are appended directly rather than re-derived from their URLs,
// each host a slice of the canonical name it comes with.
func (b *pageBuilder) page(s *Site) *webpage.Page {
	hosts := siteInternalHosts(s, &s.Snap[b.snap])
	page := &webpage.Page{
		Site:      s.Domain,
		Resources: make([]webpage.Resource, 0, len(hosts)+len(externalResources)),
	}
	for _, fqdn := range hosts {
		host := fqdn[:len(fqdn)-1]
		page.Resources = append(page.Resources, webpage.Resource{
			URL: "https://" + host + "/asset-" + slugOf(host) + ".js", Host: host, FQDN: fqdn,
		})
	}
	page.Resources = append(page.Resources, externalResources...)
	if b.chains != nil {
		b.rng.Seed(chainSeed(b.chains.cfg.Seed, s.Domain))
		b.growChains(page)
	}
	return page
}
