package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestParseServiceResource: the delta wire format accepts the fourth service.
func TestParseServiceResource(t *testing.T) {
	svc, err := ParseService("resource")
	if err != nil {
		t.Fatal(err)
	}
	if svc != Resource {
		t.Fatalf("ParseService(resource) = %v", svc)
	}
}

// TestDeltaChainRoundtrip: chain edges and Resource providers survive the
// delta codec unchanged.
func TestDeltaChainRoundtrip(t *testing.T) {
	d := Delta{Ops: []Op{
		{Kind: OpSiteAdd, Site: &Site{
			Name: "c.com", Rank: 3,
			Deps:   map[Service]Dep{DNS: {Class: ClassSingleThird, Providers: []string{"dyn"}}},
			Chains: []ChainEdge{{Provider: "vendor.net", Depth: 2}, {Provider: "cdn-lib.io", Depth: 3}},
		}},
		{Kind: OpProviderSet, Provider: &Provider{Name: "vendor.net", Service: Resource,
			Deps: map[Service]Dep{DNS: {Class: ClassSingleThird, Providers: []string{"ns1"}}}}},
	}}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseDelta(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("roundtrip parse: %v\n%s", err, b)
	}
	if !reflect.DeepEqual(d, back) {
		t.Fatalf("roundtrip mismatch:\nin:  %+v\nout: %+v\nwire: %s", d, back, b)
	}
}

// TestParseDeltaRejectsBadChainEdge: malformed chain edges fail at decode
// time, before any graph is touched.
func TestParseDeltaRejectsBadChainEdge(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty provider", `{"ops":[{"op":"site-add","site":{"name":"c.com","rank":3,"chains":[{"provider":"","depth":2}]}}]}`},
		{"zero depth", `{"ops":[{"op":"site-add","site":{"name":"c.com","rank":3,"chains":[{"provider":"v.net","depth":0}]}}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseDelta(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), "chain edge") {
				t.Fatalf("err = %v, want chain-edge rejection", err)
			}
		})
	}
}

// TestApplyChainSiteAdd: delta-adding a site with a chain edge updates the
// implicit traversal incrementally — the vendor's implicit impact grows, the
// direct (paper-semantics) numbers do not move.
func TestApplyChainSiteAdd(t *testing.T) {
	sites := []*Site{
		{Name: "a.com", Rank: 1, Deps: map[Service]Dep{
			DNS: {Class: ClassSingleThird, Providers: []string{"dyn"}},
		}},
	}
	providers := []*Provider{
		{Name: "dyn", Service: DNS, Deps: map[Service]Dep{}},
		{Name: "vendor.net", Service: Resource, Deps: map[Service]Dep{
			DNS: {Class: ClassSingleThird, Providers: []string{"dyn"}},
		}},
	}
	g := NewGraph(sites, providers)
	if got := g.Impact("vendor.net", AllImplicit()); got != 0 {
		t.Fatalf("pre-delta implicit I(vendor.net) = %d, want 0", got)
	}

	ng, _, err := g.Apply(Delta{Ops: []Op{{Kind: OpSiteAdd, Site: &Site{
		Name: "c.com", Rank: 2,
		Deps:   map[Service]Dep{DNS: {Class: ClassSingleThird, Providers: []string{"ns1"}}},
		Chains: []ChainEdge{{Provider: "vendor.net", Depth: 2}},
	}}, {Kind: OpProviderSet, Provider: &Provider{Name: "ns1", Service: DNS, Deps: map[Service]Dep{}}}}})
	if err != nil {
		t.Fatal(err)
	}
	// The chained site is a user of the vendor under any traversal (chain
	// edges are direct-user entries of the Resource service)...
	if got := ng.Impact("vendor.net", AllImplicit()); got != 1 {
		t.Errorf("implicit I(vendor.net) = %d, want 1", got)
	}
	// ...but the cascade only continues THROUGH the vendor under the
	// implicit traversal: dyn picks up c.com implicitly, never directly.
	if got := ng.Impact("dyn", AllImplicit()); got != 2 {
		t.Errorf("implicit I(dyn) = %d, want 2 (a.com direct + c.com via vendor)", got)
	}
	if got := ng.Impact("dyn", AllIndirect()); got != 1 {
		t.Errorf("direct I(dyn) = %d, want 1 (AllIndirect must not cross vendor nodes)", got)
	}

	// Removing the chained site rolls the implicit numbers back.
	ng2, _, err := ng.Apply(Delta{Ops: []Op{{Kind: OpSiteRemove, Name: "c.com"}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ng2.Impact("vendor.net", AllImplicit()); got != 0 {
		t.Errorf("after remove implicit I(vendor.net) = %d, want 0", got)
	}
}
