package measure

import (
	"context"
	"maps"
	"sort"

	"depscope/internal/core"
	"depscope/internal/publicsuffix"
	"depscope/internal/telemetry"
)

// This file implements the chain classifier: the measurement side of the
// fourth dependency type. The chain stage walks each landing page's
// resource-inclusion tree (webpage.Resource.Parent links) and reduces it to
// depth-annotated vendor references — which third-party registrable domains
// the site implicitly trusts, and how deep in the chain each one first
// appears. The chain pass then resolves every discovered vendor's own
// DNS/CDN arrangement through the same owner heuristics the inter-service
// pass applies to CDNs and CAs, so vendors enter the graph as first-class
// provider nodes whose outages can cascade.
//
// Everything here is gated on Config.Chains: with chains disabled the
// chain classifier never runs, SiteResult.Chains stays nil (and is omitted
// from JSON), and Results is byte-identical to the pre-chain pipeline.

var (
	chainEdgesBuilt = telemetry.Counter("chain_edges_total",
		"chain edges (site -> implicitly-trusted vendor) built by the chain stage")
	chainVendorsSeen = telemetry.Counter("chain_vendors_total",
		"distinct vendors resolved by the chain inter-service pass")
	chainMaxDepth = telemetry.Gauge("chain_max_depth",
		"deepest resource-inclusion level observed in the last chain-enabled run")
	chainMeanDepthMilli = telemetry.Gauge("chain_mean_depth_milli",
		"mean chain-edge inclusion depth of the last chain-enabled run, x1000")
)

// ChainRef is one measured chain edge: the site implicitly trusts Provider
// (a third-party registrable domain serving some resource in its inclusion
// tree) at minimum depth Depth (1 = loaded by the page itself).
type ChainRef struct {
	Provider string `json:"provider"`
	Depth    int    `json:"depth"`
}

// classifySiteChains walks the page's inclusion tree. A resource host is a
// vendor when its registrable domain is neither the site's own nor covered
// by the site's certificate SANs (the same internal-host evidence the CDN
// stage uses — alias CDNs and brand domains are the site, not vendors).
// Each vendor is recorded once at its minimum inclusion depth, bounded by
// Config.Chains.MaxDepth.
func (m *measurer) classifySiteChains(_ context.Context, site string) ([]ChainRef, error) {
	if m.cfg.Pages == nil {
		return nil, nil
	}
	page := m.cfg.Pages.Page(site)
	if page == nil {
		return nil, nil
	}
	siteRD := publicsuffix.RegistrableDomain(site)
	cert := m.getCert(site)
	var sanRDs map[string]bool
	if cert != nil {
		sanRDs = cert.SANRegistrableDomains()
	}

	minDepth := make(map[string]int)
	for i, r := range page.Resources {
		if r.Host == "" {
			continue
		}
		hostRD := publicsuffix.RegistrableDomain(r.Host)
		if hostRD == "" || hostRD == siteRD {
			continue
		}
		if cert != nil && (sanRDs[hostRD] || cert.MatchesSAN(r.Host)) {
			continue
		}
		depth := page.Depth(i)
		if depth > m.cfg.Chains.MaxDepth {
			continue
		}
		if d, ok := minDepth[hostRD]; !ok || depth < d {
			minDepth[hostRD] = depth
		}
	}
	if len(minDepth) == 0 {
		return nil, nil
	}
	refs := make([]ChainRef, 0, len(minDepth))
	for vendor, d := range minDepth {
		refs = append(refs, ChainRef{Provider: vendor, Depth: d})
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Provider < refs[j].Provider })
	return refs, nil
}

// chainAggregates derives the vendor population from the site pass and
// publishes the run-level chain telemetry.
func (m *measurer) chainAggregates(res *Results) map[string]bool {
	vendors := make(map[string]bool)
	edges, depthSum, maxDepth := 0, 0, 0
	for i := range res.Sites {
		for _, ref := range res.Sites[i].Chains {
			vendors[ref.Provider] = true
			edges++
			depthSum += ref.Depth
			if ref.Depth > maxDepth {
				maxDepth = ref.Depth
			}
		}
	}
	chainEdgesBuilt.Add(int64(edges))
	chainVendorsSeen.Add(int64(len(vendors)))
	chainMaxDepth.Set(int64(maxDepth))
	if edges > 0 {
		chainMeanDepthMilli.Set(int64(float64(depthSum) / float64(edges) * 1000))
	}
	return vendors
}

// chainFinish is the chain inter-service pass (pass 4): it resolves each
// discovered vendor's own DNS arrangement (owner heuristics, like CDN/CA
// apexes) and detects CDNs fronting the vendor's observed resource hosts,
// filling Results.ResourceToDNS / ResourceToCDN. The vendor population is
// complete only now, after the last batch, so the per-batch host candidates
// are filtered through it here, in site order with first-seen dedup.
func (s *Stream) chainFinish(ctx context.Context, res *Results) error {
	vendors := s.m.chainAggregates(res)
	vendorHosts := make(map[string][]string, len(vendors))
	for i := range res.Sites {
		for _, c := range s.hostCand[i] {
			if !vendors[c.rd] {
				continue
			}
			if hosts := vendorHosts[c.rd]; !containsStr(hosts, c.host) {
				vendorHosts[c.rd] = append(vendorHosts[c.rd], c.host)
			}
		}
	}
	for _, hosts := range vendorHosts {
		sort.Strings(hosts)
	}
	var err error
	res.ResourceToDNS, res.ResourceToCDN, err = s.m.ownerDeps(ctx, "chain", sortedKeys(vendors), vendorHosts, res.NSConcentration)
	// A vendor that no CDN fronts has no CDN arrangement.
	maps.DeleteFunc(res.ResourceToCDN, func(_ string, d ProviderDep) bool { return d.Class == core.ClassNone })
	return err
}
