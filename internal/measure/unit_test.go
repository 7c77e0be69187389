package measure

import (
	"context"
	"strings"
	"testing"

	"depscope/internal/certs"
	"depscope/internal/core"
	"depscope/internal/dnsmsg"
	"depscope/internal/dnszone"
	"depscope/internal/resolver"
	"depscope/internal/webpage"
)

// Hand-built micro-worlds for the classifier edge cases, independent of the
// ecosystem generator.

type pageMap map[string]*webpage.Page

func (m pageMap) Page(site string) *webpage.Page { return m[site] }

func soaData(mname, rname string) dnsmsg.SOAData {
	return dnsmsg.SOAData{MName: mname, RName: rname, Serial: 1, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300}
}

// microWorld wires the paper's canonical corner cases by hand:
//   - twitter.test: NS at Dyn, zone SOA pointing at Dyn (classifiable only
//     through the concentration rule);
//   - youtube.test: vanity NS under brand.test covered by the SAN list;
//   - amazon.test: two genuine providers (multi-third);
//   - alibaba.test: two NS domains sharing one SOA MNAME (one entity);
//   - plain.test: boring single third party via SOA mismatch.
func microWorld() (*dnszone.Store, *certs.Store, pageMap) {
	store := dnszone.NewStore()
	cs := certs.NewStore()
	pages := pageMap{}

	addProvider := func(domain string) {
		z := dnszone.NewZone(domain+".", soaData("ns1."+domain+".", "ops."+domain+"."))
		z.MustAdd(dnsmsg.Record{Name: "ns1." + domain + ".", Type: dnsmsg.TypeA, TTL: 60, Addr: dnsmsg.IPv4(203, 0, 113, 1)})
		z.MustAdd(dnsmsg.Record{Name: "ns2." + domain + ".", Type: dnsmsg.TypeA, TTL: 60, Addr: dnsmsg.IPv4(203, 0, 113, 2)})
		store.AddZone(z)
	}
	for _, d := range []string{"dynect.test", "ultra.test", "brand.test"} {
		addProvider(d)
	}
	// Alias provider: two zones, one shared SOA MNAME.
	for _, d := range []string{"alidns-a.test", "alidns-b.test"} {
		z := dnszone.NewZone(d+".", soaData("ns1.alidns-a.test.", "ops.alidns-a.test."))
		z.MustAdd(dnsmsg.Record{Name: "ns1." + d + ".", Type: dnsmsg.TypeA, TTL: 60, Addr: dnsmsg.IPv4(203, 0, 113, 3)})
		store.AddZone(z)
	}

	site := func(domain string, soa dnsmsg.SOAData, nsHosts ...string) *dnszone.Zone {
		z := dnszone.NewZone(domain+".", soa)
		for _, h := range nsHosts {
			z.MustAdd(dnsmsg.Record{Name: domain + ".", Type: dnsmsg.TypeNS, TTL: 60, Target: h})
		}
		z.MustAdd(dnsmsg.Record{Name: domain + ".", Type: dnsmsg.TypeA, TTL: 60, Addr: dnsmsg.IPv4(192, 0, 2, 1)})
		store.AddZone(z)
		pages[domain] = &webpage.Page{Site: domain}
		return z
	}

	// SOA-points-at-provider: only concentration can classify.
	site("twitter.test", soaData("ns1.dynect.test.", "hostmaster.twitter.test."),
		"ns1.dynect.test.", "ns2.dynect.test.")
	// Vanity private NS behind the SAN list.
	site("youtube.test", soaData("ns1.brand.test.", "hostmaster.youtube.test."),
		"ns1.brand.test.", "ns2.brand.test.")
	cs.Put("youtube.test", &certs.Certificate{
		Subject: "youtube.test", IssuerCA: "Google Trust Services",
		SANs: []string{"youtube.test", "*.youtube.test", "*.brand.test"},
	})
	// Genuine multi-provider redundancy.
	site("amazon.test", soaData("ns1.amazon.test.", "hostmaster.amazon.test."),
		"ns1.dynect.test.", "ns1.ultra.test.")
	// Same-entity alias across two NS domains.
	site("alibaba.test", soaData("ns1.alibaba.test.", "hostmaster.alibaba.test."),
		"ns1.alidns-a.test.", "ns1.alidns-b.test.")
	// Plain third party via SOA mismatch.
	site("plain.test", soaData("ns1.plain.test.", "hostmaster.plain.test."),
		"ns1.ultra.test.", "ns2.ultra.test.")
	return store, cs, pages
}

func microConfig(store *dnszone.Store, cs *certs.Store, pages pageMap, threshold int) Config {
	return Config{
		Resolver:               resolver.New(resolver.ZoneDirect{Store: store}),
		Certs:                  cs,
		Pages:                  pages,
		CDNMap:                 CDNMap{},
		ConcentrationThreshold: threshold,
	}
}

func TestMicroWorldClassification(t *testing.T) {
	store, cs, pages := microWorld()
	sites := []string{"twitter.test", "youtube.test", "amazon.test", "alibaba.test", "plain.test"}
	// Dyn's concentration here is 2 (twitter + amazon); threshold 2 lets the
	// concentration rule fire for the SOA-equal case.
	res, err := Run(context.Background(), sites, microConfig(store, cs, pages, 2))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SiteResult{}
	for _, sr := range res.Sites {
		byName[sr.Site] = sr
	}

	if got := byName["twitter.test"].DNS; got.Class != core.ClassSingleThird {
		t.Errorf("twitter = %v (%v), want single-third via concentration", got.Class, got.Pairs)
	} else if got.Pairs[0].Evidence != "concentration" {
		t.Errorf("twitter evidence = %q, want concentration", got.Pairs[0].Evidence)
	}
	if got := byName["youtube.test"].DNS; got.Class != core.ClassPrivate {
		t.Errorf("youtube = %v, want private via SAN", got.Class)
	} else if got.Pairs[0].Evidence != "san" {
		t.Errorf("youtube evidence = %q, want san", got.Pairs[0].Evidence)
	}
	if got := byName["amazon.test"].DNS; got.Class != core.ClassMultiThird || len(got.Providers) != 2 {
		t.Errorf("amazon = %v %v, want multi-third with 2 entities", got.Class, got.Providers)
	}
	if got := byName["alibaba.test"].DNS; got.Class != core.ClassSingleThird {
		t.Errorf("alibaba = %v %v, want single-third (one entity behind two domains)", got.Class, got.Providers)
	} else if got.Providers[0] != "alidns-a.test" {
		t.Errorf("alibaba entity = %v, want alidns-a.test", got.Providers)
	}
	if got := byName["plain.test"].DNS; got.Class != core.ClassSingleThird || got.Pairs[0].Evidence != "soa" {
		t.Errorf("plain = %v / %q, want single-third via soa", got.Class, got.Pairs[0].Evidence)
	}
}

func TestMicroWorldHighThresholdLeavesUnknown(t *testing.T) {
	store, cs, pages := microWorld()
	res, err := Run(context.Background(), []string{"twitter.test"}, microConfig(store, cs, pages, 50))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Sites[0].DNS.Class; got != core.ClassUnknown {
		t.Errorf("twitter with threshold 50 = %v, want unknown", got)
	}
}

func TestReduceDNSPairsConflictResolvesThird(t *testing.T) {
	// Two pairs in the same entity with conflicting verdicts must resolve
	// pessimistically to third-party.
	cls, providers := reduceDNSPairs("x.test", []NSPair{
		{Host: "ns1.p.test.", Class: Private, Entity: "p.test"},
		{Host: "ns2.p.test.", Class: Third, Entity: "p.test"},
	})
	if cls != core.ClassSingleThird || len(providers) != 1 {
		t.Errorf("conflict reduce = %v %v", cls, providers)
	}
}

func TestReduceDNSPairsUnknownWins(t *testing.T) {
	cls, _ := reduceDNSPairs("x.test", []NSPair{
		{Host: "ns1.a.test.", Class: Third, Entity: "a.test"},
		{Host: "ns1.b.test.", Class: Unknown, Entity: "b.test"},
	})
	if cls != core.ClassUnknown {
		t.Errorf("unknown pair should uncharacterize the site, got %v", cls)
	}
}

func TestCAClassificationMicro(t *testing.T) {
	store, cs, pages := microWorld()
	// plain.test gets a third-party CA whose zone exists with its own SOA.
	caz := dnszone.NewZone("bigca.test.", soaData("ns1.bigca.test.", "ops.bigca.test."))
	caz.MustAdd(dnsmsg.Record{Name: "ocsp.bigca.test.", Type: dnsmsg.TypeA, TTL: 60, Addr: dnsmsg.IPv4(203, 0, 113, 9)})
	store.AddZone(caz)
	cs.Put("plain.test", &certs.Certificate{
		Subject: "plain.test", IssuerCA: "Big CA",
		SANs:        []string{"plain.test"},
		OCSPServers: []string{"http://ocsp.bigca.test/status"},
		Stapled:     false,
	})
	res, err := Run(context.Background(), []string{"plain.test"}, microConfig(store, cs, pages, 2))
	if err != nil {
		t.Fatal(err)
	}
	ca := res.Sites[0].CA
	if !ca.HTTPS || !ca.Third || ca.Class != core.ClassSingleThird || ca.CAName != "bigca.test" {
		t.Errorf("CA result = %+v", ca)
	}

	// With stapling the criticality disappears.
	cs.Put("plain.test", &certs.Certificate{
		Subject: "plain.test", IssuerCA: "Big CA",
		SANs:        []string{"plain.test"},
		OCSPServers: []string{"http://ocsp.bigca.test/status"},
		Stapled:     true,
	})
	res, err = Run(context.Background(), []string{"plain.test"}, microConfig(store, cs, pages, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Sites[0].CA.Class; got != core.ClassPrivatePlusThird {
		t.Errorf("stapled CA class = %v, want private+third (non-critical)", got)
	}
}

func TestCANoRevocationEndpoints(t *testing.T) {
	store, cs, pages := microWorld()
	cs.Put("plain.test", &certs.Certificate{
		Subject: "plain.test", IssuerCA: "Self CA", SANs: []string{"plain.test"},
	})
	res, err := Run(context.Background(), []string{"plain.test"}, microConfig(store, cs, pages, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Sites[0].CA; !got.HTTPS || got.Class != core.ClassPrivate {
		t.Errorf("no-endpoint CA = %+v, want private (nothing to depend on)", got)
	}
}

func TestCDNDetectionMicro(t *testing.T) {
	store, cs, pages := microWorld()
	// plain.test serves static content from a CDN-suffixed CNAME.
	cdnz := dnszone.NewZone("edge-cdn.test.", soaData("ns1.edge-cdn.test.", "ops.edge-cdn.test."))
	cdnz.MustAdd(dnsmsg.Record{Name: "*.edge-cdn.test.", Type: dnsmsg.TypeA, TTL: 60, Addr: dnsmsg.IPv4(203, 0, 113, 77)})
	store.AddZone(cdnz)
	pz := store.Zone("plain.test.")
	pz.MustAdd(dnsmsg.Record{Name: "static.plain.test.", Type: dnsmsg.TypeCNAME, TTL: 60, Target: "c1.edge-cdn.test."})
	pages["plain.test"] = &webpage.Page{Site: "plain.test", Resources: []webpage.Resource{
		{URL: "https://static.plain.test/app.js", Host: "static.plain.test"},
		{URL: "https://cdn.elsewhere-external.test/lib.js", Host: "cdn.elsewhere-external.test"}, // external, must be skipped
	}}

	cfg := microConfig(store, cs, pages, 2)
	cfg.CDNMap = CDNMap{"edge-cdn.test": "EdgeCDN"}
	res, err := Run(context.Background(), []string{"plain.test"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cdn := res.Sites[0].CDN
	if !cdn.UsesCDN || cdn.Class != core.ClassSingleThird || len(cdn.Third) != 1 || cdn.Third[0] != "EdgeCDN" {
		t.Errorf("CDN result = %+v", cdn)
	}
	if len(cdn.InternalHosts) != 1 || cdn.InternalHosts[0] != "static.plain.test" {
		t.Errorf("internal hosts = %v", cdn.InternalHosts)
	}
}

func TestConcentrationCounting(t *testing.T) {
	got := concentration([][]string{
		{"ns1.p.test.", "ns2.p.test."}, // one site, one domain: counts once
		{"ns1.p.test.", "ns1.q.test."},
		{"ns1.q.test."},
	})
	if got["p.test"] != 2 || got["q.test"] != 2 {
		t.Errorf("concentration = %v", got)
	}
}

func TestEntityKeyFallbacks(t *testing.T) {
	if k := entityKey("ns1.prov.test.", soaData("ns1.master.test.", "x."), true); k != "master.test" {
		t.Errorf("entity via SOA MName = %q", k)
	}
	if k := entityKey("ns1.prov.test.", dnsmsg.SOAData{}, false); k != "prov.test" {
		t.Errorf("entity via host = %q", k)
	}
}

func TestClassificationString(t *testing.T) {
	if Private.String() != "private" || Third.String() != "third-party" || Unknown.String() != "unknown" {
		t.Error("Classification.String mismatch")
	}
}

func TestRunResultsOrdered(t *testing.T) {
	store, cs, pages := microWorld()
	sites := []string{"plain.test", "twitter.test", "amazon.test"}
	res, err := Run(context.Background(), sites, microConfig(store, cs, pages, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i, sr := range res.Sites {
		if sr.Site != sites[i] || sr.Rank != i+1 {
			t.Errorf("result %d = %s rank %d, want %s rank %d", i, sr.Site, sr.Rank, sites[i], i+1)
		}
	}
	if !strings.Contains(res.Sites[0].Site, "plain") {
		t.Error("order broken")
	}
}

func TestEvidenceCounts(t *testing.T) {
	store, cs, pages := microWorld()
	sites := []string{"twitter.test", "youtube.test", "amazon.test", "plain.test"}
	res, err := Run(context.Background(), sites, microConfig(store, cs, pages, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.EvidenceCounts["concentration"] == 0 {
		t.Errorf("concentration rule never fired: %v", res.EvidenceCounts)
	}
	if res.EvidenceCounts["san"] == 0 || res.EvidenceCounts["soa"] == 0 {
		t.Errorf("evidence counts incomplete: %v", res.EvidenceCounts)
	}
	total := 0
	for _, n := range res.EvidenceCounts {
		total += n
	}
	if total != res.PairStats.Private+res.PairStats.Third {
		t.Errorf("evidence total %d != classified pairs %d", total,
			res.PairStats.Private+res.PairStats.Third)
	}
}
