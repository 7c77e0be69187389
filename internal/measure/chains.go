package measure

import (
	"context"
	"fmt"
	"sort"

	"depscope/internal/conc"
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
// stage is never registered, SiteResult.Chains stays nil (and is omitted
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

// chainEnabled reports whether this run classifies chains.
func (m *measurer) chainEnabled() bool {
	return m.cfg.Chains != nil && m.cfg.Chains.Enabled()
}

// chainStage reduces a page's resource tree to depth-annotated vendor
// references. Registered only when Config.Chains enables chains.
type chainStage struct{}

func (chainStage) Name() string { return "chain" }

func (chainStage) ClassifySite(ctx context.Context, sc *SiteContext) error {
	refs, err := sc.m.classifySiteChains(ctx, sc.Site)
	if err != nil {
		sc.Result.Chains = nil
		return err
	}
	sc.Result.Chains = refs
	return nil
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
	return s.m.chainResolve(ctx, res, vendors, vendorHosts)
}

// chainResolve resolves every vendor's own DNS/CDN arrangement into
// Results.ResourceToDNS / ResourceToCDN, given the vendor population and
// each vendor's observed resource hosts.
func (m *measurer) chainResolve(ctx context.Context, res *Results, vendors map[string]bool, vendorHosts map[string][]string) error {
	res.ResourceToDNS = make(map[string]ProviderDep)
	res.ResourceToCDN = make(map[string]ProviderDep)
	vendorList := sortedKeys(vendors)
	dnsDeps := make([]*ProviderDep, len(vendorList))
	cdnDeps := make([]*ProviderDep, len(vendorList))
	err := conc.ForEach(ctx, len(vendorList), m.cfg.Workers, conc.FailFast, func(ctx context.Context, i int) error {
		vendor := vendorList[i]
		cls, deps, err := m.classifyOwnerDNS(ctx, vendor, res.NSConcentration)
		m.diag.observe(stageInterService, err)
		if err != nil {
			if m.cfg.ErrorPolicy == conc.Collect {
				m.diag.record(vendor, stageInterService, err)
			} else {
				return fmt.Errorf("chain %s dns: %w", vendor, err)
			}
		} else {
			dnsDeps[i] = &ProviderDep{Provider: vendor, Service: core.DNS, Class: cls, Deps: deps}
		}

		cdnCls, cdeps, err := m.classifyCACDN(ctx, vendor, vendorHosts[vendor])
		m.diag.observe(stageInterService, err)
		if err != nil {
			if m.cfg.ErrorPolicy == conc.Collect {
				m.diag.record(vendor, stageInterService, err)
				return nil
			}
			return fmt.Errorf("chain %s cdn: %w", vendor, err)
		}
		if cdnCls != core.ClassNone {
			cdnDeps[i] = &ProviderDep{Provider: vendor, Service: core.CDN, Class: cdnCls, Deps: cdeps}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i := range vendorList {
		if dnsDeps[i] != nil {
			res.ResourceToDNS[vendorList[i]] = *dnsDeps[i]
		}
		if cdnDeps[i] != nil {
			res.ResourceToCDN[vendorList[i]] = *cdnDeps[i]
		}
	}
	return nil
}
