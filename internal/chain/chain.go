// Package chain models transitive resource-inclusion chains — the paper's
// fourth dependency type. The direct measurement reduces a landing page to
// the flat set of hostnames serving it; "The Chain of Implicit Trust"
// (Ikram et al.) shows the page → third-party script → its CDN → its DNS
// chains behind that set dominate real exposure. This package holds the
// chain configuration (with the repo's strict JSON codec conventions) and
// the summary computed over a measured core.Graph: direct vs implicit
// concentration, the chain-depth histogram, and the top implicitly-trusted
// vendors with depth-weighted exposure.
//
// The graph-side representation lives in core: vendors are ordinary
// Provider nodes with Service == core.Resource, and each site's
// Site.Chains edges record the minimum inclusion depth at which the site
// trusts each vendor. With chains disabled nothing in this package runs
// and the graph is bit-identical to the pre-chain pipeline.
package chain

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"depscope/internal/core"
	"depscope/internal/strictjson"
)

// Config tunes chain synthesis and classification. The zero value is
// invalid; start from Default.
type Config struct {
	// MaxDepth is the deepest resource-inclusion level materialized and
	// classified. 1 means only page-level resources exist — chains
	// contribute nothing and every implicit metric degenerates to its
	// direct counterpart (the property test pins this).
	MaxDepth int `json:"max_depth"`
	// FanOut is the mean number of child resources an intermediate
	// third-party resource loads; the generator draws per-resource counts
	// from a power-law-shaped distribution with this mean.
	FanOut float64 `json:"fan_out"`
	// ThirdPartyRatio is the per-level probability that a child resource
	// is served by a third-party vendor rather than the same host.
	ThirdPartyRatio float64 `json:"third_party_ratio"`
	// Vendors is the size of the synthetic vendor universe (script/font/
	// widget operators that only ever appear inside chains).
	Vendors int `json:"vendors"`
	// Seed drives chain materialization. It is independent of the
	// ecosystem seed: chains are derived per site from a hash of this
	// seed and the site name, so enabling chains never perturbs the
	// generator's RNG stream. Zero is a seed like any other, so it is
	// always encoded: an omitted seed decodes to Default's.
	Seed int64 `json:"seed"`
}

// Default returns the stock chain configuration used by -chains.
func Default() Config {
	return Config{MaxDepth: 3, FanOut: 1.5, ThirdPartyRatio: 0.6, Vendors: 24, Seed: 7}
}

// Validate rejects configurations the generator or classifier cannot
// honor.
func (c Config) Validate() error {
	if c.MaxDepth < 1 || c.MaxDepth > 8 {
		return fmt.Errorf("chain: max_depth %d out of range [1,8]", c.MaxDepth)
	}
	if c.MaxDepth == 1 {
		return nil // chains disabled; the remaining knobs are unused
	}
	if !(c.FanOut > 0) || c.FanOut > 8 {
		return fmt.Errorf("chain: fan_out %v out of range (0,8]", c.FanOut)
	}
	if c.ThirdPartyRatio < 0 || c.ThirdPartyRatio > 1 {
		return fmt.Errorf("chain: third_party_ratio %v out of range [0,1]", c.ThirdPartyRatio)
	}
	if c.Vendors < 1 || c.Vendors > 512 {
		return fmt.Errorf("chain: vendors %d out of range [1,512]", c.Vendors)
	}
	return nil
}

// Enabled reports whether the configuration produces any chain edges.
func (c Config) Enabled() bool { return c.MaxDepth > 1 }

// ParseConfig decodes a Config from JSON, rejecting unknown fields and
// trailing bytes (the delta/sweep codec conventions), then validates it.
// Absent fields inherit Default values, so {"max_depth": 4} is a complete
// configuration.
func ParseConfig(r io.Reader) (Config, error) {
	c := Default()
	if err := strictjson.Decode(r, &c); err != nil {
		return Config{}, fmt.Errorf("decode chain config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// DepthBucket is one row of the chain-depth histogram.
type DepthBucket struct {
	Depth int `json:"depth"`
	Edges int `json:"edges"`
}

// VendorExposure ranks one implicitly-trusted vendor. Concentration and
// Impact are the implicit metrics (core.AllImplicit traversal); Weighted
// discounts each trusting site by 2^-(depth-1), so a vendor reached only
// through deep chains scores lower than one every page loads directly.
type VendorExposure struct {
	Provider      string  `json:"provider"`
	Concentration int     `json:"concentration"`
	Impact        int     `json:"impact"`
	Sites         int     `json:"sites"`
	Weighted      float64 `json:"weighted_exposure"`
	MinDepth      int     `json:"min_depth"`
	MaxDepth      int     `json:"max_depth"`
}

// ComparisonRow contrasts one direct provider's metrics with and without
// chain edges in the traversal: the implicit columns add sites that reach
// the provider only through a vendor's own DNS/CDN dependencies.
type ComparisonRow struct {
	Provider              string `json:"provider"`
	Service               string `json:"service"`
	DirectConcentration   int    `json:"direct_concentration"`
	ImplicitConcentration int    `json:"implicit_concentration"`
	DirectImpact          int    `json:"direct_impact"`
	ImplicitImpact        int    `json:"implicit_impact"`
}

// Summary is the chain analysis over one measured graph — the payload of
// GET /v1/chains and the data behind the report's implicit-trust section.
type Summary struct {
	Sites           int              `json:"sites"`
	SitesWithChains int              `json:"sites_with_chains"`
	Edges           int              `json:"edges"`
	Vendors         int              `json:"vendors"`
	MaxDepth        int              `json:"max_depth"`
	MeanDepth       float64          `json:"mean_depth"`
	DepthHist       []DepthBucket    `json:"depth_histogram"`
	TopImplicit     []VendorExposure `json:"top_implicit"`
	Comparison      []ComparisonRow  `json:"comparison"`
}

// Summarize computes the chain analysis for g. topN bounds the vendor
// ranking and the per-service comparison rows; <= 0 means 10. The result
// depends only on the graph — metric maps come from the deterministic
// batch engine, so summaries are identical across worker counts.
func Summarize(g *core.Graph, topN int) *Summary {
	if topN <= 0 {
		topN = 10
	}
	s := &Summary{Sites: len(g.Sites)}

	type vendorAgg struct {
		sites    int
		weighted float64
		min, max int
	}
	agg := make(map[string]*vendorAgg)
	depthEdges := make(map[int]int)
	depthSum := 0
	for _, site := range g.Sites {
		if len(site.Chains) == 0 {
			continue
		}
		s.SitesWithChains++
		for _, e := range site.Chains {
			s.Edges++
			depthSum += e.Depth
			depthEdges[e.Depth]++
			if e.Depth > s.MaxDepth {
				s.MaxDepth = e.Depth
			}
			va := agg[e.Provider]
			if va == nil {
				va = &vendorAgg{min: e.Depth, max: e.Depth}
				agg[e.Provider] = va
			}
			va.sites++
			va.weighted += math.Pow(2, -float64(e.Depth-1))
			if e.Depth < va.min {
				va.min = e.Depth
			}
			if e.Depth > va.max {
				va.max = e.Depth
			}
		}
	}
	s.Vendors = len(agg)
	if s.Edges > 0 {
		s.MeanDepth = float64(depthSum) / float64(s.Edges)
	}
	for d := 1; d <= s.MaxDepth; d++ {
		s.DepthHist = append(s.DepthHist, DepthBucket{Depth: d, Edges: depthEdges[d]})
	}

	eng := g.Metrics()
	impl, dir := core.AllImplicit(), core.AllIndirect()
	for name, va := range agg {
		s.TopImplicit = append(s.TopImplicit, VendorExposure{
			Provider:      name,
			Concentration: eng.Concentration(name, impl),
			Impact:        eng.Impact(name, impl),
			Sites:         va.sites,
			Weighted:      va.weighted,
			MinDepth:      va.min,
			MaxDepth:      va.max,
		})
	}
	sort.Slice(s.TopImplicit, func(i, j int) bool {
		a, b := s.TopImplicit[i], s.TopImplicit[j]
		if a.Impact != b.Impact {
			return a.Impact > b.Impact
		}
		if a.Weighted != b.Weighted {
			return a.Weighted > b.Weighted
		}
		return a.Provider < b.Provider
	})
	if len(s.TopImplicit) > topN {
		s.TopImplicit = s.TopImplicit[:topN]
	}

	// Direct vs implicit: the same providers the direct rankings surface,
	// with their counts recomputed under the chain-aware traversal.
	for _, svc := range core.Services {
		for _, ps := range g.TopProviders(svc, dir, false, topN) {
			s.Comparison = append(s.Comparison, ComparisonRow{
				Provider:              ps.Name,
				Service:               strings.ToLower(svc.String()),
				DirectConcentration:   ps.Concentration,
				ImplicitConcentration: eng.Concentration(ps.Name, impl),
				DirectImpact:          ps.Impact,
				ImplicitImpact:        eng.Impact(ps.Name, impl),
			})
		}
	}
	return s
}
