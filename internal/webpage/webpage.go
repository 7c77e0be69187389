// Package webpage models website landing pages and extracts the hostnames
// that serve page resources — the reproduction of the paper's headless-
// browser (PhantomJS) crawl, which reduced each landing page to the set of
// hostnames serving at least one object.
//
// The bulk pipeline consumes Page values emitted by the ecosystem generator;
// the live path renders a Page to HTML, serves it over net/http, and
// re-extracts the hostnames from the fetched markup, so the extraction code
// is exercised end-to-end in tests and examples.
package webpage

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"depscope/internal/conc"
	"depscope/internal/dnsmsg"
	"depscope/internal/publicsuffix"
)

// Resource is one object loaded by a landing page.
type Resource struct {
	// URL is the absolute resource URL.
	URL string
	// Host is the lowercase hostname serving the resource.
	Host string
	// FQDN is Host in canonical DNS form (trailing dot), set by builders
	// that create hosts: Host is then FQDN without its dot, sharing its
	// bytes, so measuring the page canonicalizes none of its hosts. Empty
	// when unknown (pages built with AddResource or extracted from HTML).
	FQDN string
	// Parent links the resource into the page's inclusion tree: 0 means the
	// page itself loaded it; a positive value j means Resources[j-1] loaded
	// it (a script pulling in its own script, a stylesheet importing fonts).
	// Parents always precede children in Resources, so Depth terminates.
	Parent int
}

// Page is a website landing page reduced to its resource set.
type Page struct {
	// Site is the website hostname the page belongs to.
	Site string
	// Resources are the objects the page loads, in inclusion order.
	Resources []Resource

	// hosts caches the sorted distinct host set. Invariant: the cache is
	// valid exactly when hostsLen == len(Resources) — Hosts rebuilds it
	// whenever the slice has grown, so bulk writers appending directly to
	// Resources (the ecosystem generator, chain materialization) stay
	// correct without calling AddResource. Mutating an existing element in
	// place is NOT covered; use the Add helpers or reslice. The measurement
	// pipeline reads each page's hosts once per stage, so recomputing the
	// set (map + sort) per call was pure garbage.
	hostsMu  sync.Mutex
	hosts    []string
	fqdns    []string
	hostsLen int
}

// Hosts returns the distinct resource hostnames, sorted. The cached slice
// is rebuilt whenever len(Resources) has changed since the last call;
// callers must not modify it.
func (p *Page) Hosts() []string {
	hosts, _ := p.HostNames()
	return hosts
}

// HostNames returns Hosts together with each host's canonical DNS name
// (dnsmsg.CanonicalName), index for index. A resource's FQDN supplies the
// canonical name when its builder set one; otherwise it is made once per
// cache rebuild. Callers must not modify either slice.
func (p *Page) HostNames() (hosts, fqdns []string) {
	p.hostsMu.Lock()
	defer p.hostsMu.Unlock()
	if p.hosts != nil && p.hostsLen == len(p.Resources) {
		return p.hosts, p.fqdns
	}
	seen := make(map[string]string, len(p.Resources)) // host → FQDN, if known
	for _, r := range p.Resources {
		if r.Host != "" && seen[r.Host] == "" {
			seen[r.Host] = r.FQDN
		}
	}
	hosts = make([]string, 0, len(seen))
	for h := range seen {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	fqdns = make([]string, len(hosts))
	for i, h := range hosts {
		if fqdns[i] = seen[h]; fqdns[i] == "" {
			fqdns[i] = dnsmsg.CanonicalName(h)
		}
	}
	p.hosts, p.fqdns = hosts, fqdns
	p.hostsLen = len(p.Resources)
	return hosts, fqdns
}

// AddResource appends a page-level resource by URL, deriving the host.
func (p *Page) AddResource(rawURL string) {
	p.AddResourceAt(rawURL, 0)
}

// AddResourceAt appends a resource loaded by an existing resource: parent
// is a 1-based index into Resources (0 means the page itself). It returns
// the new resource's own 1-based index, so callers can chain deeper levels.
// An out-of-range parent panics: inclusion edges must point at resources
// that already exist.
func (p *Page) AddResourceAt(rawURL string, parent int) int {
	if parent < 0 || parent > len(p.Resources) {
		panic(fmt.Sprintf("webpage: resource parent %d out of range [0,%d]", parent, len(p.Resources)))
	}
	host := hostOf(rawURL, p.Site)
	p.Resources = append(p.Resources, Resource{URL: rawURL, Host: host, Parent: parent})
	p.hostsMu.Lock()
	p.hosts = nil
	p.hostsMu.Unlock()
	return len(p.Resources)
}

// Depth returns the inclusion depth of Resources[i]: 1 for a resource the
// page loads directly, parent's depth + 1 otherwise. Malformed parent links
// (out of range or not strictly preceding the child) count as page-level.
func (p *Page) Depth(i int) int {
	depth := 1
	for j := i; ; {
		parent := p.Resources[j].Parent
		if parent <= 0 || parent > j {
			return depth
		}
		depth++
		j = parent - 1
	}
}

// hostOf resolves the host of rawURL; relative URLs belong to site.
func hostOf(rawURL, site string) string {
	u, err := url.Parse(strings.TrimSpace(rawURL))
	if err != nil {
		return ""
	}
	if u.Host == "" {
		if u.Path == "" {
			return ""
		}
		return publicsuffix.Normalize(site)
	}
	return publicsuffix.Normalize(u.Hostname())
}

// RenderHTML produces a deterministic HTML landing page that references
// every resource of p, exercising the attribute forms the extractor parses
// (img src, script src, link href, srcset entries).
func (p *Page) RenderHTML() string {
	var sb strings.Builder
	sb.WriteString("<!DOCTYPE html>\n<html>\n<head>\n")
	fmt.Fprintf(&sb, "  <title>%s</title>\n", p.Site)
	for i, r := range p.Resources {
		switch i % 4 {
		case 0:
			fmt.Fprintf(&sb, "  <script src=\"%s\"></script>\n", r.URL)
		case 1:
			fmt.Fprintf(&sb, "  <link rel=\"stylesheet\" href=\"%s\">\n", r.URL)
		default:
			// handled in body below
		}
	}
	sb.WriteString("</head>\n<body>\n")
	fmt.Fprintf(&sb, "  <h1>%s</h1>\n", p.Site)
	for i, r := range p.Resources {
		switch i % 4 {
		case 2:
			fmt.Fprintf(&sb, "  <img src='%s' alt=\"r%d\">\n", r.URL, i)
		case 3:
			fmt.Fprintf(&sb, "  <img srcset=\"%s 1x, %s 2x\">\n", r.URL, r.URL)
		}
	}
	sb.WriteString("</body>\n</html>\n")
	return sb.String()
}

// ExtractResourceHosts scans HTML markup for resource references (src,
// href, srcset, and CSS url(...) forms) and returns the distinct absolute
// hostnames serving them, with relative references attributed to site.
// It is deliberately tolerant of malformed markup: the measurement only
// needs hostnames, not a DOM.
func ExtractResourceHosts(site, html string) []string {
	seen := make(map[string]bool)
	add := func(raw string) {
		raw = strings.TrimSpace(raw)
		if raw == "" || strings.HasPrefix(raw, "data:") ||
			strings.HasPrefix(raw, "javascript:") || strings.HasPrefix(raw, "#") ||
			strings.HasPrefix(raw, "mailto:") {
			return
		}
		if h := hostOf(raw, site); h != "" {
			seen[h] = true
		}
	}

	for _, attr := range []string{"src", "href", "data-src"} {
		for _, v := range attrValues(html, attr) {
			add(v)
		}
	}
	for _, v := range attrValues(html, "srcset") {
		// srcset is a comma-separated list of "url [descriptor]" entries.
		for _, entry := range strings.Split(v, ",") {
			fields := strings.Fields(entry)
			if len(fields) > 0 {
				add(fields[0])
			}
		}
	}
	for _, v := range cssURLs(html) {
		add(v)
	}

	out := make([]string, 0, len(seen))
	for h := range seen {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// attrValues returns every value of the given attribute in the markup,
// handling single-quoted, double-quoted and unquoted forms.
func attrValues(html, attr string) []string {
	var out []string
	lower := strings.ToLower(html)
	needle := attr + "="
	for i := 0; ; {
		idx := strings.Index(lower[i:], needle)
		if idx < 0 {
			return out
		}
		idx += i
		// Require a boundary before the attribute name so "data-src" is not
		// also matched as "src".
		if idx > 0 {
			prev := lower[idx-1]
			if prev != ' ' && prev != '\t' && prev != '\n' && prev != '\r' && prev != '"' && prev != '\'' {
				i = idx + len(needle)
				continue
			}
		}
		vstart := idx + len(needle)
		if vstart >= len(html) {
			return out
		}
		var val string
		switch html[vstart] {
		case '"':
			end := strings.IndexByte(html[vstart+1:], '"')
			if end < 0 {
				return out
			}
			val = html[vstart+1 : vstart+1+end]
			i = vstart + 1 + end
		case '\'':
			end := strings.IndexByte(html[vstart+1:], '\'')
			if end < 0 {
				return out
			}
			val = html[vstart+1 : vstart+1+end]
			i = vstart + 1 + end
		default:
			end := strings.IndexAny(html[vstart:], " \t\n\r>")
			if end < 0 {
				end = len(html) - vstart
			}
			val = html[vstart : vstart+end]
			i = vstart + end
		}
		out = append(out, val)
	}
}

// cssURLs extracts url(...) references from inline CSS.
func cssURLs(html string) []string {
	var out []string
	lower := strings.ToLower(html)
	for i := 0; ; {
		idx := strings.Index(lower[i:], "url(")
		if idx < 0 {
			return out
		}
		idx += i
		end := strings.IndexByte(html[idx:], ')')
		if end < 0 {
			return out
		}
		val := strings.Trim(html[idx+4:idx+end], " \t'\"")
		out = append(out, val)
		i = idx + end + 1
	}
}

// Fetcher retrieves landing pages. The bulk pipeline uses a generator-backed
// implementation; LiveFetcher does real HTTP.
type Fetcher interface {
	// Fetch returns the landing page of site, or nil if the site does not
	// serve one.
	Fetch(ctx context.Context, site string) (*Page, error)
}

// LiveFetcher fetches pages over HTTP and extracts resource hosts from the
// returned markup.
type LiveFetcher struct {
	// Client is the HTTP client; nil means a 5s-timeout default.
	Client *http.Client
	// BaseURL maps a site name to a URL; when nil, "http://<site>/" is used.
	BaseURL func(site string) string
	// MaxBody caps how much markup is read; zero means 4 MiB.
	MaxBody int64
}

// Fetch implements Fetcher over live HTTP.
func (f *LiveFetcher) Fetch(ctx context.Context, site string) (*Page, error) {
	client := f.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	target := "http://" + site + "/"
	if f.BaseURL != nil {
		target = f.BaseURL(site)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("webpage: fetch %s: %w", site, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("webpage: fetch %s: status %s", site, resp.Status)
	}
	maxBody := f.MaxBody
	if maxBody == 0 {
		maxBody = 4 << 20
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return nil, err
	}
	page := &Page{Site: site}
	for _, h := range ExtractResourceHosts(site, string(body)) {
		page.Resources = append(page.Resources, Resource{Host: h})
	}
	return page, nil
}

// CrawlResult pairs a site with its fetched page or error.
type CrawlResult struct {
	Site string
	Page *Page
	Err  error
}

// CrawlAll fetches the landing pages of many sites concurrently (the
// paper's 100K-page crawl stage). Results arrive in input order; a site's
// fetch error is recorded, not fatal. workers <= 0 means 8.
func CrawlAll(ctx context.Context, f Fetcher, sites []string, workers int) []CrawlResult {
	if workers <= 0 {
		workers = 8
	}
	out := make([]CrawlResult, len(sites))
	err := conc.ForEach(ctx, len(sites), workers, conc.Collect, func(ctx context.Context, i int) error {
		page, ferr := f.Fetch(ctx, sites[i])
		out[i] = CrawlResult{Site: sites[i], Page: page, Err: ferr}
		return nil
	})
	if err != nil {
		// Cancellation stops the pool before every site is claimed; the
		// unclaimed slots still owe the caller a per-site result.
		for i := range out {
			if out[i].Site == "" {
				out[i] = CrawlResult{Site: sites[i], Err: err}
			}
		}
	}
	return out
}
