package analysis

import (
	"reflect"
	"strings"
	"testing"

	"depscope/internal/core"
)

// diffFixture builds a small graph with a known metric structure:
//
//	a.com: DNS single-third dns1, CDN multi {cdn1, cdn2}
//	b.com: DNS single-third dns1
//	cdn1 critically depends on dns1 for DNS
func diffFixture() *core.Graph {
	sites := []*core.Site{
		{Name: "a.com", Rank: 1, Deps: map[core.Service]core.Dep{
			core.DNS: {Class: core.ClassSingleThird, Providers: []string{"dns1"}},
			core.CDN: {Class: core.ClassMultiThird, Providers: []string{"cdn1", "cdn2"}},
		}},
		{Name: "b.com", Rank: 2, Deps: map[core.Service]core.Dep{
			core.DNS: {Class: core.ClassSingleThird, Providers: []string{"dns1"}},
		}},
	}
	providers := []*core.Provider{
		{Name: "dns1", Service: core.DNS, Deps: map[core.Service]core.Dep{}},
		{Name: "dns2", Service: core.DNS, Deps: map[core.Service]core.Dep{}},
		{Name: "cdn2", Service: core.CDN, Deps: map[core.Service]core.Dep{}},
		{Name: "cdn1", Service: core.CDN, Deps: map[core.Service]core.Dep{
			core.DNS: {Class: core.ClassSingleThird, Providers: []string{"dns1"}},
		}},
	}
	return core.NewGraph(sites, providers)
}

func TestDiffGraphsIdentical(t *testing.T) {
	g := diffFixture()
	d := DiffGraphs(g, g)
	if !reflect.DeepEqual(d, &GraphDiff{}) {
		t.Fatalf("self-diff not empty: %+v", d)
	}
}

// TestDiffGraphsSwap pins the change surface of the paper's diversification
// move: b.com swaps dns1 for dns2.
func TestDiffGraphsSwap(t *testing.T) {
	g := diffFixture()
	ng, _, err := g.Apply(core.Delta{Ops: []core.Op{
		{Kind: core.OpSwap, Name: "b.com", Service: core.DNS, From: "dns1", To: "dns2"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	d := DiffGraphs(g, ng)
	byName := make(map[string]ProviderDelta)
	for _, p := range d.Providers {
		byName[p.Name] = p
	}
	// dns1 loses b.com from both sets; dns2 gains it.
	d1, ok := byName["dns1"]
	if !ok || d1.DeltaConcentration != -1 || d1.OldConcentration != 2 || d1.NewConcentration != 1 {
		t.Fatalf("dns1 delta = %+v (present %v)", d1, ok)
	}
	d2, ok := byName["dns2"]
	if !ok || d2.DeltaConcentration != 1 || d2.OldConcentration != 0 {
		t.Fatalf("dns2 delta = %+v (present %v)", d2, ok)
	}
	if len(d.SiteChanges) != 0 {
		t.Fatalf("swap changed no class, got %+v", d.SiteChanges)
	}
	if len(d.SitesAdded)+len(d.SitesRemoved) != 0 {
		t.Fatalf("swap changed no universe membership: %+v", d)
	}
}

// TestDiffGraphsClassChange: single-third → multi-third is a class change
// row, and provider counts move with it.
func TestDiffGraphsClassChange(t *testing.T) {
	g := diffFixture()
	ng, _, err := g.Apply(core.Delta{Ops: []core.Op{
		{Kind: core.OpSiteDep, Name: "b.com", Service: core.DNS,
			Dep: core.Dep{Class: core.ClassMultiThird, Providers: []string{"dns1", "dns2"}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	d := DiffGraphs(g, ng)
	want := []SiteClassChange{{Site: "b.com", Service: "dns", OldClass: "single-third", NewClass: "multi-third"}}
	if !reflect.DeepEqual(d.SiteChanges, want) {
		t.Fatalf("SiteChanges = %+v, want %+v", d.SiteChanges, want)
	}
	// b.com is no longer critically dependent on dns1, so I_dns1 drops; it
	// still uses dns1 (C unchanged) and now also uses dns2 (C_dns2 rises).
	var sawDNS1, sawDNS2 bool
	for _, p := range d.Providers {
		switch p.Name {
		case "dns1":
			sawDNS1 = p.DeltaImpact == -1 && p.DeltaConcentration == 0
		case "dns2":
			sawDNS2 = p.DeltaConcentration == 1
		}
	}
	if !sawDNS1 || !sawDNS2 {
		t.Fatalf("provider deltas = %+v, want dns1 ΔI=-1 and dns2 ΔC=+1", d.Providers)
	}
}

func TestDiffGraphsSiteAddRemove(t *testing.T) {
	g := diffFixture()
	ng, _, err := g.Apply(core.Delta{Ops: []core.Op{
		{Kind: core.OpSiteRemove, Name: "a.com"},
		{Kind: core.OpSiteAdd, Site: &core.Site{Name: "c.com", Rank: 3, Deps: map[core.Service]core.Dep{
			core.DNS: {Class: core.ClassSingleThird, Providers: []string{"dns2"}},
		}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	d := DiffGraphs(g, ng)
	if !reflect.DeepEqual(d.SitesAdded, []string{"c.com"}) || !reflect.DeepEqual(d.SitesRemoved, []string{"a.com"}) {
		t.Fatalf("membership diff = +%v -%v", d.SitesAdded, d.SitesRemoved)
	}
}

func TestParseDeltaStream(t *testing.T) {
	in := `{"base":"2016","steps":[
	  {"label":"exodus","delta":{"ops":[{"op":"swap","name":"b.com","service":"dns","from":"dns1","to":"dns2"}]}}
	]}`
	ds, err := ParseDeltaStream(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Base != "2016" || len(ds.Steps) != 1 || ds.Steps[0].Label != "exodus" || len(ds.Steps[0].Delta.Ops) != 1 {
		t.Fatalf("parsed stream = %+v", ds)
	}
	for _, bad := range []string{
		`{"base":"2016","bogus":1,"steps":[]}`,
		`{"steps":[{"delta":{"ops":[{"op":"nope"}]}}]}`,
		`{"steps":[]}{"steps":[]}`,
	} {
		if _, err := ParseDeltaStream(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseDeltaStream accepted %q", bad)
		}
	}
}

// TestTimelineReplay replays a two-step stream on a measured run and checks
// the rows evolve consistently.
func TestTimelineReplay(t *testing.T) {
	run, err := Execute(t.Context(), Options{Scale: 120, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	g, err := SnapshotGraph(run, "2016")
	if err != nil {
		t.Fatal(err)
	}
	// Pick a measured site whose ONLY critical dependency is DNS, so
	// diversifying that one arrangement takes it out of the critical-site
	// count entirely.
	var site, from string
	for _, s := range g.Sites {
		d, ok := s.Deps[core.DNS]
		if !ok || d.Class != core.ClassSingleThird || len(d.Providers) == 0 || len(s.PrivateInfra) > 0 {
			continue
		}
		onlyDNS := true
		for svc, dep := range s.Deps {
			if svc != core.DNS && dep.Class.Critical() {
				onlyDNS = false
				break
			}
		}
		if onlyDNS {
			site, from = s.Name, d.Providers[0]
			break
		}
	}
	if site == "" {
		t.Skip("no DNS-only critically dependent site at this scale/seed")
	}
	stream := &DeltaStream{Base: "2016", Steps: []DeltaStep{
		{Label: "diversify", Delta: core.Delta{Ops: []core.Op{
			{Kind: core.OpSiteDep, Name: site, Service: core.DNS,
				Dep: core.Dep{Class: core.ClassMultiThird, Providers: []string{from, "backup-dns.example"}}},
		}}},
		{Label: "depart", Delta: core.Delta{Ops: []core.Op{
			{Kind: core.OpSiteRemove, Name: site},
		}}},
	}}
	rows, err := Timeline(run, stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (base + 2 steps)", len(rows))
	}
	if rows[0].Sites != 120 || rows[1].Sites != 120 || rows[2].Sites != 119 {
		t.Fatalf("site counts = %d,%d,%d", rows[0].Sites, rows[1].Sites, rows[2].Sites)
	}
	// Step 1 removes one critical dependence: the critical-site count drops.
	if rows[1].CriticalSites >= rows[0].CriticalSites {
		t.Fatalf("critical sites %d → %d, want a drop after diversification",
			rows[0].CriticalSites, rows[1].CriticalSites)
	}
	if rows[1].Changed == 0 {
		t.Fatal("step 1 reported no changed providers")
	}
	var sb strings.Builder
	RenderTimeline(&sb, rows)
	out := sb.String()
	for _, want := range []string{"base (2016)", "diversify", "depart", "top DNS provider", "net:"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered timeline missing %q:\n%s", want, out)
		}
	}
}
