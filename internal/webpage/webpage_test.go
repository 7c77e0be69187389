package webpage

import (
	"context"
	"net/http"
	"net/http/httptest"
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
	got := ExtractResourceHosts("yahoo.example", html)
	want := []string{
		"a.example", "b.example", "cdn.images.example", "fonts.thirdparty.example",
		"lazy.example", "protocol-relative.example", "static.yimg.example",
		"yahoo.example", // canonical link + relative img
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ExtractResourceHosts:\n got %v\nwant %v", got, want)
	}
}

func TestExtractHandlesUnquotedAndMalformed(t *testing.T) {
	html := `<img src=https://unquoted.example/a.png><img src= <img src="https://x.example/y">`
	got := ExtractResourceHosts("site.example", html)
	found := map[string]bool{}
	for _, h := range got {
		found[h] = true
	}
	if !found["unquoted.example"] {
		t.Errorf("unquoted src missed: %v", got)
	}
	// Malformed fragments must not panic and must not invent hosts.
	ExtractResourceHosts("site.example", `<img src="`)
	ExtractResourceHosts("site.example", `url(`)
	ExtractResourceHosts("site.example", "")
}

func TestDataSrcBoundary(t *testing.T) {
	// "data-src" must not be double-counted through the bare "src" scan.
	html := `<img data-src="https://only-lazy.example/x.png">`
	got := ExtractResourceHosts("s.example", html)
	if len(got) != 1 || got[0] != "only-lazy.example" {
		t.Errorf("got %v", got)
	}
}

func TestPageHostsAndAddResource(t *testing.T) {
	p := &Page{Site: "shop.example"}
	p.AddResource("https://img.shop.example/a.png")
	p.AddResource("https://img.shop.example/b.png")
	p.AddResource("/relative/c.css")
	p.AddResource("https://cdn.partner.example/d.js")
	got := p.Hosts()
	want := []string{"cdn.partner.example", "img.shop.example", "shop.example"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Hosts = %v, want %v", got, want)
	}
}

// TestHostsCacheBulkAppend is the regression test for the stale-cache bug:
// appending straight to Resources (the bulk generator path) used to leave
// Hosts() serving the pre-append set forever, because only AddResource
// invalidated the cache. The invariant is now length-based: Hosts()
// rebuilds whenever len(Resources) differs from the cached length.
func TestHostsCacheBulkAppend(t *testing.T) {
	p := &Page{Site: "bulk.example"}
	p.AddResource("https://first.example/a.js")
	if got := p.Hosts(); !reflect.DeepEqual(got, []string{"first.example"}) {
		t.Fatalf("warm-up Hosts = %v", got)
	}
	// Direct slice append, bypassing AddResource.
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
	p.AddResource("https://Other.Example/b.js")
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

func TestAddResourceAtAndDepth(t *testing.T) {
	p := &Page{Site: "site.example"}
	p.AddResource("https://page-asset.example/a.css") // index 1, depth 1
	js := p.AddResourceAt("https://analytics.example/t.js", 0)
	if js != 2 {
		t.Fatalf("AddResourceAt index = %d, want 2", js)
	}
	beacon := p.AddResourceAt("https://beacon.example/b.gif", js) // depth 2
	deep := p.AddResourceAt("https://deep.example/d.js", beacon)  // depth 3
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
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range parent should panic")
			}
		}()
		p.AddResourceAt("https://x.example/x", 99)
	}()
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
		p.AddResource(u)
	}
	got := ExtractResourceHosts(p.Site, p.RenderHTML())
	want := p.Hosts()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("render/extract round trip:\n got %v\nwant %v", got, want)
	}
}

// TestLiveFetcher serves a rendered page over real HTTP and verifies the
// fetched host set matches the page definition.
func TestLiveFetcher(t *testing.T) {
	p := &Page{Site: "live.example"}
	p.AddResource("https://assets.live.example/a.js")
	p.AddResource("https://edge-77.fastcdn.example/b.css")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(p.RenderHTML()))
	}))
	defer srv.Close()

	f := &LiveFetcher{BaseURL: func(string) string { return srv.URL }}
	got, err := f.Fetch(context.Background(), "live.example")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Hosts(), p.Hosts()) {
		t.Errorf("live fetch hosts = %v, want %v", got.Hosts(), p.Hosts())
	}
}

func TestLiveFetcherErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	f := &LiveFetcher{BaseURL: func(string) string { return srv.URL }}
	if _, err := f.Fetch(context.Background(), "down.example"); err == nil {
		t.Error("expected error on 503")
	}
	f2 := &LiveFetcher{BaseURL: func(string) string { return "http://127.0.0.1:1/" }}
	if _, err := f2.Fetch(context.Background(), "unreachable.example"); err == nil {
		t.Error("expected error on refused connection")
	}
}

func BenchmarkExtractResourceHosts(b *testing.B) {
	p := &Page{Site: "bench.example"}
	for i := 0; i < 40; i++ {
		p.AddResource("https://static.bench.example/asset.js")
		p.AddResource("https://edge.cdn.example/img.png")
	}
	html := p.RenderHTML()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ExtractResourceHosts("bench.example", html)
	}
}

func TestCrawlAll(t *testing.T) {
	// Serve distinct pages per site from one test server; one site 404s.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		site := r.URL.Query().Get("site")
		if site == "down.example" {
			http.NotFound(w, r)
			return
		}
		p := &Page{Site: site}
		p.AddResource("https://static." + site + "/app.js")
		w.Write([]byte(p.RenderHTML()))
	}))
	defer srv.Close()

	f := &LiveFetcher{BaseURL: func(site string) string { return srv.URL + "/?site=" + site }}
	sites := []string{"a.example", "b.example", "down.example", "c.example"}
	results := CrawlAll(context.Background(), f, sites, 3)
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Site != sites[i] {
			t.Fatalf("result %d out of order: %s", i, r.Site)
		}
	}
	if results[2].Err == nil {
		t.Error("down.example should error")
	}
	for _, i := range []int{0, 1, 3} {
		if results[i].Err != nil {
			t.Fatalf("%s: %v", sites[i], results[i].Err)
		}
		want := "static." + sites[i]
		hosts := results[i].Page.Hosts()
		found := false
		for _, h := range hosts {
			if h == want {
				found = true
			}
		}
		if !found {
			t.Errorf("%s hosts = %v, want %s", sites[i], hosts, want)
		}
	}
}

func TestCrawlAllCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := &LiveFetcher{BaseURL: func(string) string { return "http://127.0.0.1:1/" }}
	results := CrawlAll(ctx, f, []string{"x.example", "y.example"}, 2)
	for _, r := range results {
		if r.Err == nil {
			t.Errorf("%s: expected error after cancel", r.Site)
		}
	}
}
