package ecosystem

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"depscope/internal/chain"
	"depscope/internal/dnsmsg"
	"depscope/internal/dnszone"
	"depscope/internal/webpage"
)

// This file materializes transitive resource-inclusion chains on top of an
// already-materialized World: a vendor universe (script/font/widget
// operators that only ever appear inside chains, each with its own DNS
// delegation and optionally a CDN-fronted static host) and, per landing
// page, child resources hanging off the page-level ones with power-law
// fan-out up to chain.Config.MaxDepth.
//
// MaterializeChains is a separate entry point, NOT part of Materialize, for
// a load-bearing reason: the generator consumes a single RNG stream, and
// the measurement pinning tests require chains-off runs to stay
// byte-identical. Chains therefore derive all randomness from per-site
// hashes of the chain seed, never touching the generator's stream, and a
// world never passed through MaterializeChains is bit-identical to one
// built before this file existed.

// chainVendor is one synthetic implicitly-trusted operator.
type chainVendor struct {
	domain  string // registrable domain; the measured provider identity
	host    string // static.<domain> — the host chain resources load from
	fqdn    string // host + ".", which host is a prefix of
	dnsDep  ProviderDNS
	cdnProv string // CDN provider name fronting host; "" serves directly
}

// chainVendorUniverse derives the deterministic vendor population. Vendor
// i's arrangement depends only on i, so the universe is stable across
// runs, worker counts and scales. DNS choices are skewed toward the big
// operators (the implicit-concentration signal under study); every name
// referenced exists in both snapshots.
func chainVendorUniverse(n int) []chainVendor {
	dnsPool := []string{
		"Cloudflare", "Cloudflare", "Cloudflare", // 30% Cloudflare
		"AWS DNS", "AWS DNS", // 20% AWS
		"Dyn", "GoDaddy", "NS1", "UltraDNS", // 10% each
		"", // 10% private DNS
	}
	cdnPool := []string{"Amazon CloudFront", "Fastly", "", "Akamai", "", "Cloudflare CDN"}
	out := make([]chainVendor, n)
	for i := range out {
		domain := fmt.Sprintf("chain-vendor-%02d.net", i)
		fqdn := "static." + domain + "."
		v := chainVendor{
			domain:  domain,
			host:    fqdn[:len(fqdn)-1],
			fqdn:    fqdn,
			cdnProv: cdnPool[i%len(cdnPool)],
		}
		if dns := dnsPool[i%len(dnsPool)]; dns == "" {
			v.dnsDep = ProviderDNS{Private: true}
		} else {
			v.dnsDep = ProviderDNS{Third: []string{dns}}
		}
		out[i] = v
	}
	return out
}

// chainPlan is what chain growth needs once the vendor zones exist: the
// config and the vendor universe it derives.
type chainPlan struct {
	cfg     chain.Config
	vendors []chainVendor
}

// vendorZones materializes the vendor universe's zones into the world and
// returns the plan pages grow their chains from, or nil when cfg is
// disabled (MaxDepth <= 1).
func (m *materializer) vendorZones(cfg chain.Config) *chainPlan {
	if !cfg.Enabled() {
		return nil
	}
	ch := &chainPlan{cfg: cfg, vendors: chainVendorUniverse(cfg.Vendors)}
	for i := range ch.vendors {
		m.chainVendorZone(&ch.vendors[i])
	}
	return ch
}

// MaterializeChains extends w with the chain vendor universe and replaces
// every landing page with the same page grown with its resource chains. It
// must run after Materialize (it needs the provider zones) and is a no-op
// when cfg is disabled (MaxDepth <= 1). Pages are rebuilt through the
// shared page routine — in parallel, one reseeded RNG per task, inserted
// in rank order — and each site's chains come from its own seeded RNG
// stream, so results are independent of everything but (universe, cfg).
func MaterializeChains(u *Universe, w *World, cfg chain.Config) {
	m := &materializer{u: u, w: w, snap: w.Snapshot}
	if ch := m.vendorZones(cfg); ch != nil {
		m.buildPages(existingSites(u, w.Snapshot), ch)
	}
}

// chainVendorZone materializes one vendor's DNS zone: delegation per its
// arrangement (own SOA master, so the soa heuristic sees a third party
// cleanly), an apex address, and the static host either CNAMEd into its
// CDN's edge namespace or answered directly.
func (m *materializer) chainVendorZone(v *chainVendor) {
	origin := v.domain + "."
	soa := dnsmsg.SOAData{
		MName: "ns1." + v.domain + ".", RName: "ops." + v.domain + ".",
		Serial: 2020010101, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300,
	}
	z := dnszone.NewZone(origin, soa)
	m.zoneNS(z, origin, v.domain, v.dnsDep)
	z.MustAdd(dnsmsg.Record{Name: origin, Type: dnsmsg.TypeA, TTL: 300, Addr: dnsmsg.IPv4(198, 51, 100, 70)})
	if v.cdnProv != "" {
		cp := m.u.Providers[v.cdnProv]
		if cp == nil {
			panic("ecosystem: chain vendor uses unknown CDN " + v.cdnProv)
		}
		z.MustAdd(dnsmsg.Record{Name: v.fqdn, Type: dnsmsg.TypeCNAME, TTL: 300,
			Target: "v-" + slugOf(v.domain) + "." + cp.CNAMESuffix + "."})
	} else {
		z.MustAdd(dnsmsg.Record{Name: v.fqdn, Type: dnsmsg.TypeA, TTL: 300, Addr: dnsmsg.IPv4(198, 51, 100, 71)})
	}
	m.w.Zones.AddZone(z)
}

// maxChainResources caps per-page chain growth: the fan-out draw has a
// geometric tail, and a page must stay a page, not a crawl frontier.
const maxChainResources = 256

// growChains appends child resources to page for depths 2..MaxDepth,
// drawing from b.rng: the page routine builds pages in parallel with one
// RNG per task, reseeds it from chainSeed before each site's growth, and
// inserts the finished pages in rank order, so the draws depend on the
// site alone. Every existing (page-level) resource is a depth-1 chain
// root; each frontier resource spawns a geometric number of children with
// mean cfg.FanOut, and each child is vendor-hosted with probability
// cfg.ThirdPartyRatio or same-host otherwise (a site's own bundle pulling a
// second internal asset). Children are appended with their known host (and
// its canonical form) and parent index. The frontier holds 1-based
// resource indexes.
func (b *pageBuilder) growChains(page *webpage.Page) {
	cfg, vendors := b.chains.cfg, b.chains.vendors
	b.frontier = b.frontier[:0]
	for i := range page.Resources {
		b.frontier = append(b.frontier, i+1)
	}
	p := cfg.FanOut / (1 + cfg.FanOut)
	added := 0
	for depth := 2; depth <= cfg.MaxDepth && len(b.frontier) > 0; depth++ {
		b.next = b.next[:0]
		for _, parent := range b.frontier {
			k := 0
			for b.rng.Float64() < p && k < 8 {
				k++
			}
			for j := 0; j < k && added < maxChainResources; j++ {
				host, fqdn := page.Resources[parent-1].Host, page.Resources[parent-1].FQDN
				if b.rng.Float64() < cfg.ThirdPartyRatio {
					v := &vendors[b.rng.Intn(len(vendors))]
					host, fqdn = v.host, v.fqdn
				}
				page.Resources = append(page.Resources, webpage.Resource{
					URL:    "https://" + host + "/chain-d" + strconv.Itoa(depth) + "-" + strconv.Itoa(added) + ".js",
					Host:   host,
					FQDN:   fqdn,
					Parent: parent,
				})
				b.next = append(b.next, len(page.Resources))
				added++
			}
		}
		b.frontier, b.next = b.next, b.frontier
	}
}

// chainSeed derives a site's chain RNG seed from the configured seed and
// the site name (fnv-1a), so per-site chains are independent of site
// iteration order and of each other.
func chainSeed(seed int64, site string) int64 {
	h := fnv.New64a()
	h.Write([]byte(site))
	return seed ^ int64(h.Sum64())
}
