// Package webpage models website landing pages and extracts the hostnames
// that serve page resources — the reproduction of the paper's headless-
// browser (PhantomJS) crawl, which reduced each landing page to the set of
// hostnames serving at least one object.
//
// The pipeline consumes Page values emitted by the ecosystem generator.
// RenderHTML writes a page as markup (a world's fingerprint hashes it). The
// package tests recover the host set from that markup with an HTML
// resource extractor, the stand-in for the browser's resource list, and
// check the round trip on one test page.
package webpage

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"depscope/internal/dnsmsg"
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
	// when unknown (hosts extracted from HTML).
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
	// correct. Mutating an existing element in place is NOT covered;
	// reslice instead. The measurement pipeline reads each page's hosts
	// once per stage, so recomputing the set (map + sort) per call was pure
	// garbage.
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
