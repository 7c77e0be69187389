package measure

import (
	"strings"

	"depscope/internal/publicsuffix"
)

// CDNMap maps CNAME suffixes to CDN display names (§3.3's self-populated
// map).
type CDNMap map[string]string

// compiledCDNMap is a CDNMap with every suffix pre-normalized into one
// lookup table, built once per Run.
type compiledCDNMap struct {
	// bySuffix maps a normalized suffix to its CDN name. Distinct raw keys
	// that normalize to the same suffix collapse to the lexicographically
	// smallest CDN name.
	bySuffix map[string]string
	// shortest maps CDN name → its shortest raw suffix (the zone apex the
	// inter-service pass probes); length ties break lexicographically so the
	// choice never depends on map iteration order.
	shortest map[string]string
}

// compile normalizes every suffix once.
func (m CDNMap) compile() *compiledCDNMap {
	bySuffix := make(map[string]string, len(m))
	shortest := make(map[string]string, len(m))
	for raw, name := range m {
		s := publicsuffix.Normalize(raw)
		if s == "" {
			continue
		}
		if cur, ok := bySuffix[s]; !ok || name < cur {
			bySuffix[s] = name
		}
		if cur, ok := shortest[name]; !ok ||
			len(raw) < len(cur) || (len(raw) == len(cur) && raw < cur) {
			shortest[name] = raw
		}
	}
	return &compiledCDNMap{bySuffix: bySuffix, shortest: shortest}
}

// Match is the hot-path lookup. The suffixes covering name are name itself
// and whatever follows each of its dots, so walking the dots left to right
// probes them longest first, and the first hit is the longest covering
// suffix. Two distinct suffixes of equal length cannot both cover one name,
// so this is exactly Match's documented tie-break. The probes are
// substrings of name and allocate nothing.
func (c *compiledCDNMap) Match(name string) (cdn, suffix string, ok bool) {
	name = publicsuffix.Normalize(name)
	for s := name; ; {
		if cdn, ok := c.bySuffix[s]; ok {
			return cdn, s, true
		}
		i := strings.IndexByte(s, '.')
		if i < 0 {
			return "", "", false
		}
		s = s[i+1:]
	}
}
