// The HTML resource extractor the round-trip test holds RenderHTML's markup
// against: the stand-in for the resource list of the paper's headless
// browser.
package webpage

import (
	"net/url"
	"sort"
	"strings"

	"depscope/internal/publicsuffix"
)

// extractResourceHosts scans HTML markup for resource references (src,
// href, srcset, and CSS url(...) forms) and returns the distinct absolute
// hostnames serving them, with relative references attributed to site.
// It is deliberately tolerant of malformed markup: the measurement only
// needs hostnames, not a DOM.
func extractResourceHosts(site, html string) []string {
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
