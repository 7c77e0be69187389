package webpage

import (
	"reflect"
	"testing"
	"unsafe"
)

func TestExtractResourceHosts(t *testing.T) {
	html := `<!DOCTYPE html>
<html><head>
  <script src="https://static.yimg.example/js/app.js"></script>
  <link rel="stylesheet" href='https://fonts.thirdparty.example/css?family=X'>
  <link rel="canonical" href="https://yahoo.example/">
  <style>body { background: url("https://cdn.images.example/bg.png"); }</style>
</head><body>
  <img src=//protocol-relative.example/logo.png>
  <img src="/local/banner.png">
  <img srcset="https://a.example/1.png 1x, https://b.example/2.png 2x">
  <img data-src="https://lazy.example/x.png">
  <a href="mailto:x@y.example">mail</a>
  <a href="#frag">frag</a>
  <img src="data:image/png;base64,AAAA">
  <script src='javascript:void(0)'></script>
</body></html>`
	got := extractResourceHosts("yahoo.example", html)
	want := []string{
		"a.example", "b.example", "cdn.images.example", "fonts.thirdparty.example",
		"lazy.example", "protocol-relative.example", "static.yimg.example",
		"yahoo.example", // canonical link + relative img
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("extractResourceHosts:\n got %v\nwant %v", got, want)
	}
}

func TestExtractHandlesUnquotedAndMalformed(t *testing.T) {
	html := `<img src=https://unquoted.example/a.png><img src= <img src="https://x.example/y">`
	got := extractResourceHosts("site.example", html)
	found := map[string]bool{}
	for _, h := range got {
		found[h] = true
	}
	if !found["unquoted.example"] {
		t.Errorf("unquoted src missed: %v", got)
	}
	// Malformed fragments must not panic and must not invent hosts.
	extractResourceHosts("site.example", `<img src="`)
	extractResourceHosts("site.example", `url(`)
	extractResourceHosts("site.example", "")
}

func TestDataSrcBoundary(t *testing.T) {
	// "data-src" must not be double-counted through the bare "src" scan.
	html := `<img data-src="https://only-lazy.example/x.png">`
	got := extractResourceHosts("s.example", html)
	if len(got) != 1 || got[0] != "only-lazy.example" {
		t.Errorf("got %v", got)
	}
}

func TestPageHosts(t *testing.T) {
	p := &Page{Site: "shop.example"}
	addResource(p, "https://img.shop.example/a.png", 0)
	addResource(p, "https://img.shop.example/b.png", 0)
	addResource(p, "/relative/c.css", 0)
	addResource(p, "https://cdn.partner.example/d.js", 0)
	got := p.Hosts()
	want := []string{"cdn.partner.example", "img.shop.example", "shop.example"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Hosts = %v, want %v", got, want)
	}
}

// TestHostsCacheBulkAppend is the regression test for the stale-cache bug:
// appending straight to Resources (the bulk generator path) after Hosts()
// had filled its cache used to leave Hosts() serving the pre-append set
// forever. The invariant is length-based: Hosts() rebuilds whenever
// len(Resources) differs from the cached length.
func TestHostsCacheBulkAppend(t *testing.T) {
	p := &Page{Site: "bulk.example"}
	addResource(p, "https://first.example/a.js", 0)
	if got := p.Hosts(); !reflect.DeepEqual(got, []string{"first.example"}) {
		t.Fatalf("warm-up Hosts = %v", got)
	}
	// Direct slice append after the cache was filled.
	p.Resources = append(p.Resources, Resource{URL: "https://second.example/b.js", Host: "second.example"})
	got := p.Hosts()
	want := []string{"first.example", "second.example"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Hosts after direct append = %v, want %v (stale cache)", got, want)
	}
}

// TestHostNamesCanonical: HostNames pairs each host with its canonical
// name, taking a builder's FQDN as given (no new string) and making the
// rest once per cache rebuild.
func TestHostNamesCanonical(t *testing.T) {
	fqdn := "www.built.example."
	p := &Page{Site: "built.example", Resources: []Resource{
		{URL: "https://www.built.example/a.js", Host: fqdn[:len(fqdn)-1], FQDN: fqdn},
	}}
	addResource(p, "https://Other.Example/b.js", 0)
	hosts, fqdns := p.HostNames()
	if want := []string{"other.example", "www.built.example"}; !reflect.DeepEqual(hosts, want) {
		t.Fatalf("hosts = %v, want %v", hosts, want)
	}
	if want := []string{"other.example.", "www.built.example."}; !reflect.DeepEqual(fqdns, want) {
		t.Fatalf("fqdns = %v, want %v", fqdns, want)
	}
	if unsafe.StringData(fqdns[1]) != unsafe.StringData(fqdn) {
		t.Error("a builder's FQDN was copied, not reused")
	}
	if unsafe.StringData(hosts[1]) != unsafe.StringData(fqdn) {
		t.Error("the built host is not a slice of its FQDN")
	}
}

func TestDepth(t *testing.T) {
	p := &Page{Site: "site.example"}
	addResource(p, "https://page-asset.example/a.css", 0) // index 1, depth 1
	js := addResource(p, "https://analytics.example/t.js", 0)
	if js != 2 {
		t.Fatalf("addResource index = %d, want 2", js)
	}
	beacon := addResource(p, "https://beacon.example/b.gif", js) // depth 2
	deep := addResource(p, "https://deep.example/d.js", beacon)  // depth 3
	for i, want := range map[int]int{0: 1, 1: 1, js - 1: 1, beacon - 1: 2, deep - 1: 3} {
		if got := p.Depth(i); got != want {
			t.Errorf("Depth(%d) = %d, want %d", i, got, want)
		}
	}
	// Malformed parent links (self/forward references) degrade to depth 1.
	q := &Page{Site: "bad.example", Resources: []Resource{{Host: "x.example", Parent: 1}}}
	if got := q.Depth(0); got != 1 {
		t.Errorf("self-parent Depth = %d, want 1", got)
	}
	hosts := p.Hosts()
	want := []string{"analytics.example", "beacon.example", "deep.example", "page-asset.example"}
	if !reflect.DeepEqual(hosts, want) {
		t.Errorf("Hosts = %v, want %v", hosts, want)
	}
}

func TestRenderExtractRoundTrip(t *testing.T) {
	p := &Page{Site: "news.example"}
	urls := []string{
		"https://static.news.example/app.js",
		"https://styles.news.example/main.css",
		"https://images.cdnprovider.example/hero.jpg",
		"https://tracker.ads.example/pixel.gif",
		"https://fonts.provider.example/font.woff2",
	}
	for _, u := range urls {
		addResource(p, u, 0)
	}
	got := extractResourceHosts(p.Site, p.RenderHTML())
	want := p.Hosts()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("render/extract round trip:\n got %v\nwant %v", got, want)
	}
}

func BenchmarkExtractResourceHosts(b *testing.B) {
	p := &Page{Site: "bench.example"}
	for i := 0; i < 40; i++ {
		addResource(p, "https://static.bench.example/asset.js", 0)
		addResource(p, "https://edge.cdn.example/img.png", 0)
	}
	html := p.RenderHTML()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		extractResourceHosts("bench.example", html)
	}
}

// addResource appends a resource loaded by the page (parent 0) or by an
// earlier resource (its 1-based index), deriving the host from the URL as
// extractResourceHosts does, and returns the new resource's own index.
func addResource(p *Page, rawURL string, parent int) int {
	p.Resources = append(p.Resources, Resource{URL: rawURL, Host: hostOf(rawURL, p.Site), Parent: parent})
	return len(p.Resources)
}
