package chain

import (
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"depscope/internal/core"
	"depscope/internal/strictjson"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
	if !Default().Enabled() {
		t.Fatal("Default() should enable chains")
	}
}

func TestValidateRanges(t *testing.T) {
	base := Default()
	cases := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"depth zero", func(c *Config) { c.MaxDepth = 0 }, false},
		{"depth too deep", func(c *Config) { c.MaxDepth = 9 }, false},
		{"depth one disables, other knobs ignored", func(c *Config) { c.MaxDepth = 1; c.FanOut = -5 }, true},
		{"fanout zero", func(c *Config) { c.FanOut = 0 }, false},
		{"fanout too high", func(c *Config) { c.FanOut = 8.5 }, false},
		{"ratio negative", func(c *Config) { c.ThirdPartyRatio = -0.1 }, false},
		{"ratio above one", func(c *Config) { c.ThirdPartyRatio = 1.1 }, false},
		{"no vendors", func(c *Config) { c.Vendors = 0 }, false},
		{"vendor flood", func(c *Config) { c.Vendors = 513 }, false},
		{"stock", func(c *Config) {}, true},
	}
	for _, tc := range cases {
		c := base
		tc.mut(&c)
		if err := c.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestParseConfigStrict pins the repo's codec conventions on the chain
// config: unknown fields and trailing bytes are rejected, absent fields
// inherit the defaults, and invalid values fail validation.
func TestParseConfigStrict(t *testing.T) {
	c, err := ParseConfig(strings.NewReader(`{"max_depth": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	want := Default()
	want.MaxDepth = 4
	if c != want {
		t.Errorf("partial config = %+v, want defaults with max_depth 4 (%+v)", c, want)
	}

	if _, err := ParseConfig(strings.NewReader(`{"max_depht": 4}`)); err == nil {
		t.Error("typoed field accepted")
	}
	if _, err := ParseConfig(strings.NewReader(`{"max_depth": 4} {"max_depth": 2}`)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing object: err = %v, want trailing-data rejection", err)
	}
	if _, err := ParseConfig(strings.NewReader(`{"max_depth": 4}garbage`)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := ParseConfig(strings.NewReader(`{"max_depth": 99}`)); err == nil {
		t.Error("out-of-range depth accepted")
	}
	if _, err := ParseConfig(strings.NewReader(`not json`)); err == nil {
		t.Error("non-JSON accepted")
	}
}

// parseSummary decodes a GET /v1/chains body the way a client that fails
// loudly on schema drift does: strictly, into a Summary.
func parseSummary(r io.Reader) (*Summary, error) {
	var s Summary
	if err := strictjson.Decode(r, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// TestParseSummaryStrict pins the /v1/chains wire form: a served Summary
// round-trips through a strict client decode, and schema drift (unknown
// fields) and trailing bytes fail loudly.
func TestParseSummaryStrict(t *testing.T) {
	orig := &Summary{
		Sites:           10,
		SitesWithChains: 7,
		Edges:           20,
		Vendors:         3,
		MaxDepth:        3,
		MeanDepth:       2.1,
		DepthHist:       []DepthBucket{{Depth: 1, Edges: 5}, {Depth: 2, Edges: 10}, {Depth: 3, Edges: 5}},
		TopImplicit: []VendorExposure{
			{Provider: "v.net", Concentration: 7, Impact: 7, Sites: 7, Weighted: 5.5, MinDepth: 1, MaxDepth: 3},
		},
		Comparison: []ComparisonRow{
			{Provider: "dns1.com", Service: "dns", DirectConcentration: 4, ImplicitConcentration: 9, DirectImpact: 3, ImplicitImpact: 8},
		},
	}
	b, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseSummary(strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Errorf("round trip drifted:\n got %+v\nwant %+v", got, orig)
	}

	if _, err := parseSummary(strings.NewReader(`{"sites": 1, "surprise": true}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := parseSummary(strings.NewReader(`{"sites": 1}{"sites": 2}`)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing object: err = %v, want trailing-data rejection", err)
	}
}

// chainedGraph hand-builds a world where s1 trusts vendor v.net at depth 1,
// s2 at depth 3, and s3 has no chains; v.net's DNS is dns1.com, which s3
// also uses directly.
func chainedGraph() *core.Graph {
	sites := []*core.Site{
		{
			Name: "s1.com", Rank: 1,
			Deps:   map[core.Service]core.Dep{},
			Chains: []core.ChainEdge{{Provider: "v.net", Depth: 1}},
		},
		{
			Name: "s2.com", Rank: 2,
			Deps:   map[core.Service]core.Dep{},
			Chains: []core.ChainEdge{{Provider: "v.net", Depth: 3}},
		},
		{
			Name: "s3.com", Rank: 3,
			Deps: map[core.Service]core.Dep{
				core.DNS: {Class: core.ClassSingleThird, Providers: []string{"dns1.com"}},
			},
		},
	}
	providers := []*core.Provider{
		{Name: "v.net", Service: core.Resource, Deps: map[core.Service]core.Dep{
			core.DNS: {Class: core.ClassSingleThird, Providers: []string{"dns1.com"}},
		}},
	}
	return core.NewGraph(sites, providers)
}

func TestSummarize(t *testing.T) {
	s := Summarize(chainedGraph(), 10)
	if s.Sites != 3 || s.SitesWithChains != 2 || s.Edges != 2 || s.Vendors != 1 {
		t.Fatalf("shape = %+v", s)
	}
	if s.MaxDepth != 3 || s.MeanDepth != 2 {
		t.Errorf("depths: max %d mean %v, want 3 and 2", s.MaxDepth, s.MeanDepth)
	}
	wantHist := []DepthBucket{{1, 1}, {2, 0}, {3, 1}}
	if len(s.DepthHist) != 3 || s.DepthHist[0] != wantHist[0] || s.DepthHist[1] != wantHist[1] || s.DepthHist[2] != wantHist[2] {
		t.Errorf("hist = %v, want %v", s.DepthHist, wantHist)
	}
	if len(s.TopImplicit) != 1 {
		t.Fatalf("TopImplicit = %v", s.TopImplicit)
	}
	v := s.TopImplicit[0]
	if v.Provider != "v.net" || v.Sites != 2 || v.MinDepth != 1 || v.MaxDepth != 3 {
		t.Errorf("vendor = %+v", v)
	}
	// Weighted: depth 1 -> 1.0, depth 3 -> 0.25.
	if math.Abs(v.Weighted-1.25) > 1e-9 {
		t.Errorf("weighted = %v, want 1.25", v.Weighted)
	}
	// Implicit C/I of the vendor: both chained sites, critically.
	if v.Concentration != 2 || v.Impact != 2 {
		t.Errorf("vendor implicit C/I = %d/%d, want 2/2", v.Concentration, v.Impact)
	}

	// dns1.com is the comparison headline: 1 direct user (s3), but under
	// the implicit traversal the vendor's chained sites count too.
	var dns1 *ComparisonRow
	for i := range s.Comparison {
		if s.Comparison[i].Provider == "dns1.com" {
			dns1 = &s.Comparison[i]
		}
	}
	if dns1 == nil {
		t.Fatalf("dns1.com missing from comparison: %+v", s.Comparison)
	}
	if dns1.DirectConcentration != 1 || dns1.DirectImpact != 1 {
		t.Errorf("dns1 direct C/I = %d/%d, want 1/1", dns1.DirectConcentration, dns1.DirectImpact)
	}
	if dns1.ImplicitConcentration != 3 || dns1.ImplicitImpact != 3 {
		t.Errorf("dns1 implicit C/I = %d/%d, want 3/3", dns1.ImplicitConcentration, dns1.ImplicitImpact)
	}
}

// TestSummarizeNoChains: a graph without chain edges yields the empty-shape
// summary (the serve layer 404s on it; the report section renders nothing).
func TestSummarizeNoChains(t *testing.T) {
	g := core.NewGraph([]*core.Site{
		{Name: "s.com", Rank: 1, Deps: map[core.Service]core.Dep{
			core.DNS: {Class: core.ClassSingleThird, Providers: []string{"dns1.com"}},
		}},
	}, nil)
	s := Summarize(g, 5)
	if s.SitesWithChains != 0 || s.Edges != 0 || s.Vendors != 0 || len(s.TopImplicit) != 0 || len(s.DepthHist) != 0 {
		t.Errorf("no-chain summary not empty: %+v", s)
	}
	// Degeneracy at the metric level: with no chain edges the implicit
	// traversal IS the direct traversal.
	eng := g.Metrics()
	dc, di := eng.Counts(core.AllIndirect())
	ic, ii := eng.Counts(core.AllImplicit())
	for name, v := range dc {
		if ic[name] != v {
			t.Errorf("C_p(%s): direct %d, implicit %d", name, v, ic[name])
		}
	}
	for name, v := range di {
		if ii[name] != v {
			t.Errorf("I_p(%s): direct %d, implicit %d", name, v, ii[name])
		}
	}
}
