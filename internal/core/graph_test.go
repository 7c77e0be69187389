package core

import (
	"testing"
)

// paperGraph builds the canonical examples from the paper:
//   - twitter uses Dyn directly (critical);
//   - pinterest uses Fastly (critical), Fastly critically uses Dyn for DNS
//     (the 2016 incident chain);
//   - spotify uses Dyn and a private DNS (mixed, not critical);
//   - netflix uses Symantec CA which uses Verisign DNS (critical);
//   - academia uses MaxCDN which uses AWS DNS.
func paperGraph() *Graph {
	sites := []*Site{
		{Name: "twitter.com", Rank: 1, Deps: map[Service]Dep{
			DNS: {Class: ClassSingleThird, Providers: []string{"Dyn"}},
		}},
		{Name: "pinterest.com", Rank: 2, Deps: map[Service]Dep{
			DNS: {Class: ClassPrivate},
			CDN: {Class: ClassSingleThird, Providers: []string{"Fastly"}},
		}},
		{Name: "spotify.com", Rank: 3, Deps: map[Service]Dep{
			DNS: {Class: ClassPrivatePlusThird, Providers: []string{"Dyn"}},
		}},
		{Name: "netflix.com", Rank: 4, Deps: map[Service]Dep{
			DNS: {Class: ClassMultiThird, Providers: []string{"Dyn", "UltraDNS"}},
			CA:  {Class: ClassSingleThird, Providers: []string{"Symantec"}},
		}},
		{Name: "academia.edu", Rank: 5, Deps: map[Service]Dep{
			CDN: {Class: ClassSingleThird, Providers: []string{"MaxCDN"}},
		}},
	}
	providers := []*Provider{
		{Name: "Dyn", Service: DNS, Deps: map[Service]Dep{}},
		{Name: "UltraDNS", Service: DNS, Deps: map[Service]Dep{}},
		{Name: "Fastly", Service: CDN, Deps: map[Service]Dep{
			DNS: {Class: ClassSingleThird, Providers: []string{"Dyn"}},
		}},
		{Name: "MaxCDN", Service: CDN, Deps: map[Service]Dep{
			DNS: {Class: ClassSingleThird, Providers: []string{"AWS DNS"}},
		}},
		{Name: "AWS DNS", Service: DNS, Deps: map[Service]Dep{}},
		{Name: "Symantec", Service: CA, Deps: map[Service]Dep{
			DNS: {Class: ClassSingleThird, Providers: []string{"Verisign DNS"}},
		}},
		{Name: "Verisign DNS", Service: DNS, Deps: map[Service]Dep{}},
	}
	return NewGraph(sites, providers)
}

func TestDirectConcentrationAndImpact(t *testing.T) {
	g := paperGraph()
	// Direct: twitter (critical), spotify (mixed), netflix (multi) use Dyn.
	if c := g.Concentration("Dyn", DirectOnly()); c != 3 {
		t.Errorf("direct C(Dyn) = %d, want 3", c)
	}
	if i := g.Impact("Dyn", DirectOnly()); i != 1 {
		t.Errorf("direct I(Dyn) = %d, want 1 (twitter only)", i)
	}
}

// The hand-derived expectations below hold both the engine's site sets and
// the recursive oracle to the paper's incident chains.

func TestIndirectImpactViaCDN(t *testing.T) {
	g := paperGraph()
	// The Dyn incident chain: pinterest is critically dependent on Fastly,
	// which is critically dependent on Dyn.
	for _, set := range []map[string]bool{g.ImpactSet("Dyn", AllIndirect()), g.impactSetRecursive("Dyn", AllIndirect())} {
		if !set["twitter.com"] || !set["pinterest.com"] {
			t.Errorf("I(Dyn) with indirection = %v, want twitter+pinterest", set)
		}
		if set["spotify.com"] || set["netflix.com"] {
			t.Errorf("redundant sites must not be in I(Dyn): %v", set)
		}
	}
	// Concentration additionally counts the redundant users.
	for _, cset := range []map[string]bool{g.ConcentrationSet("Dyn", AllIndirect()), g.concentrationSetRecursive("Dyn", AllIndirect())} {
		for _, w := range []string{"twitter.com", "pinterest.com", "spotify.com", "netflix.com"} {
			if !cset[w] {
				t.Errorf("C(Dyn) missing %s: %v", w, cset)
			}
		}
	}
}

func TestIndirectImpactViaCA(t *testing.T) {
	g := paperGraph()
	for _, set := range []map[string]bool{g.ImpactSet("Verisign DNS", AllIndirect()), g.impactSetRecursive("Verisign DNS", AllIndirect())} {
		if !set["netflix.com"] || len(set) != 1 {
			t.Errorf("I(Verisign DNS) = %v, want netflix only", set)
		}
	}
	// With CA edges disabled, Verisign has no impact.
	if i := g.Impact("Verisign DNS", TraversalOpts{ViaProviders: []Service{CDN}}); i != 0 {
		t.Errorf("I(Verisign DNS) without CA edges = %d, want 0", i)
	}
}

func TestTraversalFilter(t *testing.T) {
	g := paperGraph()
	// AWS DNS impact flows only through MaxCDN (a CDN).
	if i := g.Impact("AWS DNS", TraversalOpts{ViaProviders: []Service{CDN}}); i != 1 {
		t.Errorf("I(AWS DNS) via CDN = %d, want 1 (academia)", i)
	}
	if i := g.Impact("AWS DNS", TraversalOpts{ViaProviders: []Service{CA}}); i != 0 {
		t.Errorf("I(AWS DNS) via CA = %d, want 0", i)
	}
}

func TestCycleTermination(t *testing.T) {
	// Two providers depending on each other must not loop.
	sites := []*Site{{Name: "w.com", Rank: 1, Deps: map[Service]Dep{
		CDN: {Class: ClassSingleThird, Providers: []string{"P1"}},
	}}}
	providers := []*Provider{
		{Name: "P1", Service: CDN, Deps: map[Service]Dep{
			DNS: {Class: ClassSingleThird, Providers: []string{"P2"}},
		}},
		{Name: "P2", Service: DNS, Deps: map[Service]Dep{
			CDN: {Class: ClassSingleThird, Providers: []string{"P1"}},
		}},
	}
	g := NewGraph(sites, providers)
	if i := g.Impact("P2", AllIndirect()); i != 1 {
		t.Errorf("I(P2) = %d, want 1", i)
	}
	if i := g.Impact("P1", AllIndirect()); i != 1 {
		t.Errorf("I(P1) = %d, want 1", i)
	}
}

func TestTopProviders(t *testing.T) {
	g := paperGraph()
	top := g.TopProviders(DNS, DirectOnly(), false, 2)
	if len(top) != 2 || top[0].Name != "Dyn" {
		t.Fatalf("top DNS providers = %+v", top)
	}
	if top[0].Concentration != 3 || top[0].Impact != 1 {
		t.Errorf("Dyn stats = %+v", top[0])
	}
	// Ranking by transitive impact promotes providers with heavy CA/CDN use.
	topI := g.TopProviders(DNS, AllIndirect(), true, 3)
	if topI[0].Name != "Dyn" || topI[0].Impact != 2 {
		t.Errorf("indirect top = %+v", topI)
	}
}

func TestCriticalDepsPerSite(t *testing.T) {
	g := paperGraph()
	direct := g.CriticalDepsPerSite(false)
	if direct["pinterest.com"] != 1 {
		t.Errorf("direct critical deps of pinterest = %d, want 1", direct["pinterest.com"])
	}
	indirect := g.CriticalDepsPerSite(true)
	if indirect["pinterest.com"] != 2 { // Fastly + Dyn
		t.Errorf("indirect critical deps of pinterest = %d, want 2", indirect["pinterest.com"])
	}
	if indirect["netflix.com"] != 2 { // Symantec + Verisign (DNS is redundant)
		t.Errorf("indirect critical deps of netflix = %d, want 2", indirect["netflix.com"])
	}
	if indirect["spotify.com"] != 0 {
		t.Errorf("spotify has redundancy, deps = %d", indirect["spotify.com"])
	}
}

func TestServiceBandsCumulative(t *testing.T) {
	var sites []*Site
	// 1000 sites: ranks 1..1000; all have DNS; first one private, rest single.
	for i := 1; i <= 1000; i++ {
		class := ClassSingleThird
		if i == 1 {
			class = ClassPrivate
		}
		sites = append(sites, &Site{Name: itoa(i), Rank: i, Deps: map[Service]Dep{
			DNS: {Class: class, Providers: []string{"P"}},
		}})
	}
	g := NewGraph(sites, []*Provider{{Name: "P", Service: DNS}})
	bands := ServiceBands(g, DNS, 1000)
	if bands[0].Total != 1 || bands[0].Private != 1 {
		t.Errorf("band0 = %+v", bands[0])
	}
	if bands[3].Total != 1000 || bands[3].Single != 999 {
		t.Errorf("band3 = %+v", bands[3])
	}
	if got := bands[3].Critical(); got < 0.99 {
		t.Errorf("band3 critical = %f", got)
	}
	if bands[1].Label != "k=10" || bands[3].Label != "k=1K" {
		t.Errorf("labels = %q %q", bands[1].Label, bands[3].Label)
	}
}

// TestBands pins the one rank-banding rule: band boundaries at scale/1000,
// /100 and /10, and labels that carry a K suffix only for whole thousands.
func TestBands(t *testing.T) {
	bandOf := []struct{ rank, scale, want int }{
		{1, 100000, 0}, {100, 100000, 0}, {101, 100000, 1},
		{1000, 100000, 1}, {1001, 100000, 2}, {10000, 100000, 2},
		{10001, 100000, 3}, {100000, 100000, 3},
		{1, 2000, 0}, {2, 2000, 0}, {3, 2000, 1}, {20, 2000, 1}, {21, 2000, 2},
		{2, 2500, 0}, {3, 2500, 1}, {25, 2500, 1}, {26, 2500, 2},
		{250, 2500, 2}, {251, 2500, 3}, {2500, 2500, 3},
	}
	for _, tt := range bandOf {
		if got := BandOf(tt.rank, tt.scale); got != tt.want {
			t.Errorf("BandOf(%d, %d) = %d, want %d", tt.rank, tt.scale, got, tt.want)
		}
	}
	labels := []struct {
		scale int
		want  [4]string
	}{
		{2500, [4]string{"k=2", "k=25", "k=250", "k=2500"}},
		{2000, [4]string{"k=2", "k=20", "k=200", "k=2K"}},
		{10000, [4]string{"k=10", "k=100", "k=1K", "k=10K"}},
		{100000, [4]string{"k=100", "k=1K", "k=10K", "k=100K"}},
	}
	for _, tt := range labels {
		for b, want := range tt.want {
			if got := BandLabel(b, tt.scale); got != want {
				t.Errorf("BandLabel(%d, %d) = %q, want %q", b, tt.scale, got, want)
			}
		}
	}
}

func TestConcentrationCDF(t *testing.T) {
	var sites []*Site
	for i := 1; i <= 100; i++ {
		p := "Small" + itoa(i)
		if i <= 80 {
			p = "Big"
		}
		sites = append(sites, &Site{Name: itoa(i), Rank: i, Deps: map[Service]Dep{
			DNS: {Class: ClassSingleThird, Providers: []string{p}},
		}})
	}
	g := NewGraph(sites, nil)
	cdf := ConcentrationCDF(g, DNS)
	if len(cdf) != 21 {
		t.Fatalf("cdf length = %d, want 21", len(cdf))
	}
	if cdf[0].Coverage != 0.8 {
		t.Errorf("first provider coverage = %f, want 0.8", cdf[0].Coverage)
	}
	if got := ProvidersForCoverage(cdf, 0.8); got != 1 {
		t.Errorf("ProvidersForCoverage(0.8) = %d, want 1", got)
	}
	if got := ProvidersForCoverage(cdf, 1.0); got != 21 {
		t.Errorf("ProvidersForCoverage(1.0) = %d, want 21", got)
	}
	if got := ProvidersForCoverage(nil, 0.5); got != 0 {
		t.Errorf("empty cdf = %d, want 0", got)
	}
	if got := DistinctProviders(g, DNS); got != 21 {
		t.Errorf("DistinctProviders = %d", got)
	}
}

func TestModeTrends(t *testing.T) {
	old := SiteClasses{
		"a.com": ClassPrivate, "b.com": ClassSingleThird,
		"c.com": ClassMultiThird, "d.com": ClassSingleThird,
		"e.com": ClassSingleThird, "f.com": ClassUnknown,
	}
	new := SiteClasses{
		"a.com": ClassSingleThird, "b.com": ClassPrivate,
		"c.com": ClassSingleThird, "d.com": ClassPrivatePlusThird,
		"e.com": ClassSingleThird, "f.com": ClassSingleThird,
	}
	ranks := map[string]int{"a.com": 1, "b.com": 2, "c.com": 3, "d.com": 4, "e.com": 5}
	rows := ModeTrends(old, new, ranks, 5)
	last := rows[3]
	if last.PvtToSingle != 20 || last.SingleToPvt != 20 ||
		last.RedToNoRed != 20 || last.NoRedToRed != 20 {
		t.Errorf("trend row = %+v", last)
	}
	// critical: old 3 (b,d,e), new 3 (a,c,e) → delta 0.
	if last.CriticalDelta != 0 {
		t.Errorf("critical delta = %f, want 0", last.CriticalDelta)
	}
}

func TestStaplingTrends(t *testing.T) {
	old := map[string]bool{"a.com": true, "b.com": false, "c.com": false, "d.com": true}
	new := map[string]bool{"a.com": false, "b.com": true, "c.com": false, "d.com": true}
	ranks := map[string]int{"a.com": 1, "b.com": 2, "c.com": 3, "d.com": 4}
	rows := StaplingTrends(old, new, ranks, 4)
	last := rows[3]
	if last.StapleToNo != 25 || last.NoToStaple != 25 || last.CriticalDelta != 0 {
		t.Errorf("stapling row = %+v", last)
	}
}

func TestProviderTrends(t *testing.T) {
	old := map[string]DepClass{
		"CA1": ClassPrivate, "CA2": ClassSingleThird, "CA3": ClassMultiThird,
		"CA4": ClassSingleThird, "CA5": ClassNone, "CA6": ClassSingleThird,
		"Gone": ClassSingleThird,
	}
	new := map[string]DepClass{
		"CA1": ClassSingleThird, "CA2": ClassPrivate, "CA3": ClassSingleThird,
		"CA4": ClassMultiThird, "CA5": ClassSingleThird, "CA6": ClassSingleThird,
	}
	tr := ProviderTrends(old, new)
	if tr.Total != 6 {
		t.Errorf("total = %d", tr.Total)
	}
	if tr.PvtToSingle != 1 || tr.SingleToPvt != 1 || tr.RedToNoRed != 1 ||
		tr.NoRedToRed != 1 || tr.NoneToThird != 1 {
		t.Errorf("trend = %+v", tr)
	}
	// old critical: CA2, CA4, CA6 = 3; new critical: CA1, CA3, CA5, CA6 = 4.
	if tr.CriticalDelta != 1 {
		t.Errorf("critical delta = %d, want 1", tr.CriticalDelta)
	}
}

func TestDepClassPredicates(t *testing.T) {
	if !ClassSingleThird.Critical() || ClassMultiThird.Critical() {
		t.Error("Critical wrong")
	}
	if !ClassPrivatePlusThird.Redundant() || ClassSingleThird.Redundant() {
		t.Error("Redundant wrong")
	}
	if ClassPrivate.UsesThird() || !ClassMultiThird.UsesThird() {
		t.Error("UsesThird wrong")
	}
	for _, c := range []DepClass{ClassNone, ClassPrivate, ClassSingleThird, ClassMultiThird, ClassPrivatePlusThird, ClassUnknown} {
		if c.String() == "" {
			t.Error("empty String()")
		}
	}
	for _, s := range Services {
		if s.String() == "" {
			t.Error("empty service name")
		}
	}
}

func BenchmarkImpactTransitive(b *testing.B) {
	// A star of 200 providers each with 500 critical sites, all providers
	// critically on one root DNS provider.
	var sites []*Site
	providers := []*Provider{{Name: "Root", Service: DNS}}
	for p := 0; p < 200; p++ {
		pname := "CDN" + itoa(p)
		providers = append(providers, &Provider{
			Name: pname, Service: CDN,
			Deps: map[Service]Dep{DNS: {Class: ClassSingleThird, Providers: []string{"Root"}}},
		})
		for s := 0; s < 500; s++ {
			sites = append(sites, &Site{
				Name: pname + "-" + itoa(s), Rank: len(sites) + 1,
				Deps: map[Service]Dep{CDN: {Class: ClassSingleThird, Providers: []string{pname}}},
			})
		}
	}
	g := NewGraph(sites, providers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := g.Impact("Root", AllIndirect()); got != 100000 {
			b.Fatalf("impact = %d", got)
		}
	}
}
