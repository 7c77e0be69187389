// Package publicsuffix implements public-suffix-list matching and
// registrable-domain (eTLD+1) extraction.
//
// The paper's classification heuristics repeatedly compare the "TLD" of two
// hostnames; per its references ([38], [65]) the comparison is really over
// registrable domains as defined by the Mozilla Public Suffix List, e.g. the
// registrable domain of www.example.co.uk is example.co.uk, not uk. This
// package embeds the subset of the PSL needed by the synthetic ecosystem plus
// the common real-world suffixes, and supports the PSL wildcard (*.ck) and
// exception (!www.ck) rule forms so it behaves like a full implementation.
package publicsuffix

import "strings"

// List is a compiled set of public-suffix rules.
type List struct {
	// rules maps each key to the forms it takes, as bits: "com" is a normal
	// key, "*.ck" the wildcard key "ck", "!www.ck" the exception key "www.ck".
	rules map[string]uint8
	// depth is the most labels any key has; longer candidates cannot match.
	depth int
}

// Rule forms, the bits of List.rules values.
const (
	normalRule = 1 << iota
	wildcardRule
	exceptionRule
)

// defaultRules is the embedded rule set. It covers every suffix that the
// synthetic ecosystem generator can emit, the common gTLDs/ccTLDs seen in the
// paper's provider names, and representative wildcard/exception rules so the
// matcher is exercised on all PSL rule forms.
var defaultRules = []string{
	// Generic TLDs.
	"com", "net", "org", "io", "co", "dev", "app", "edu", "gov", "mil",
	"info", "biz", "cloud", "online", "site", "store", "tech", "xyz",
	"health", "hospital", "systems", "services", "agency", "goog", "page",
	// Country TLDs.
	"us", "uk", "de", "fr", "jp", "cn", "ru", "br", "in", "au", "ca", "nl",
	"it", "es", "se", "no", "ch", "at", "be", "pl", "kr", "tw", "mx", "ir",
	"tv", "me", "cc", "ws", "to", "ly", "gg", "fm", "ai",
	// Multi-label public suffixes.
	"co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk", "net.uk",
	"com.au", "net.au", "org.au", "edu.au", "gov.au",
	"co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp",
	"com.br", "net.br", "org.br", "gov.br",
	"com.cn", "net.cn", "org.cn", "gov.cn", "edu.cn",
	"co.in", "net.in", "org.in", "gen.in", "firm.in",
	"co.kr", "ne.kr", "or.kr", "re.kr",
	"com.mx", "org.mx", "gob.mx",
	"com.tw", "org.tw", "gov.tw",
	"co.nz", "net.nz", "org.nz", "govt.nz",
	"com.sg", "edu.sg", "gov.sg",
	"co.za", "org.za", "gov.za",
	"com.tr", "org.tr", "gov.tr",
	"com.ua", "net.ua", "org.ua", "gov.ua",
	// Infrastructure / provider-style public suffixes (sites hosted directly
	// under a provider suffix are their own registrable domains, as on the
	// real PSL).
	"github.io", "gitlab.io", "netlify.app", "herokuapp.com",
	"azurewebsites.net", "blogspot.com", "appspot.com", "web.app",
	"firebaseapp.com", "s3.amazonaws.com", "elasticbeanstalk.com",
	// Wildcard and exception rules (PSL rule-form coverage).
	"*.ck", "!www.ck",
	"*.bd", "*.er", "*.fk",
	"*.kawasaki.jp", "!city.kawasaki.jp",
}

var defaultList = NewList(defaultRules)

// NewList compiles a list of PSL-style rules ("com", "co.uk", "*.ck",
// "!www.ck") into a matcher implementing the canonical PSL algorithm:
// exception rules beat wildcard rules, and among the rest the longest
// matching rule wins; with no match the implicit "*" rule applies.
func NewList(rules []string) *List {
	l := &List{rules: make(map[string]uint8, len(rules))}
	for _, r := range rules {
		r = strings.ToLower(strings.TrimSpace(r))
		key, form := r, uint8(normalRule)
		switch {
		case r == "":
			continue
		case strings.HasPrefix(r, "!"):
			key, form = r[1:], exceptionRule
		case strings.HasPrefix(r, "*."):
			key, form = r[2:], wildcardRule
		}
		l.rules[key] |= form
		l.depth = max(l.depth, strings.Count(key, ".")+1)
	}
	return l
}

// Default returns the embedded default list.
func Default() *List { return defaultList }

// PublicSuffix returns the public suffix of domain and whether any explicit
// rule matched (false means the implicit "*" rule was used, i.e. the last
// label alone is the suffix).
func (l *List) PublicSuffix(domain string) (suffix string, explicit bool) {
	d := Normalize(domain)
	if d == "" {
		return "", false
	}
	// p is the start of the longest candidate with at most depth labels.
	p := len(d) + 1
	for k := 0; k < max(l.depth, 1) && p > 0; k++ {
		p = strings.LastIndexByte(d[:p-1], '.') + 1
	}
	// Scan candidate suffixes from longest to shortest; the first match is
	// the longest matching rule.
	for {
		cand := d[p:]
		form := l.rules[cand]
		if form&exceptionRule != 0 {
			// The suffix for an exception rule is the rule minus its
			// leftmost label: "!www.ck" makes "ck" the suffix of www.ck.
			return cand[strings.IndexByte(cand, '.')+1:], true
		}
		if form&wildcardRule != 0 && p > 0 {
			// "*.ck" puts the suffix one label to the left of "ck".
			return d[strings.LastIndexByte(d[:p-1], '.')+1:], true
		}
		if form&normalRule != 0 {
			return cand, true
		}
		i := strings.IndexByte(cand, '.')
		if i < 0 {
			return cand, false
		}
		p += i + 1
	}
}

// RegistrableDomain returns the eTLD+1 of domain: the public suffix plus one
// label. It returns "" if the domain is itself a public suffix or empty. The
// result is a substring of lowercase ASCII input.
func (l *List) RegistrableDomain(domain string) string {
	domain = Normalize(domain)
	// PublicSuffix normalizes again (trimming a second trailing dot, say).
	suffix, _ := l.PublicSuffix(domain)
	n := len(domain) - len(suffix) - 1
	if n < 0 || domain[n] != '.' || domain[n+1:] != suffix {
		return ""
	}
	return domain[strings.LastIndexByte(domain[:n], '.')+1:]
}

// RegistrableDomain extracts the eTLD+1 using the default list. This is the
// paper's tld(x) primitive.
func RegistrableDomain(domain string) string {
	return defaultList.RegistrableDomain(domain)
}

// PublicSuffix returns the public suffix of domain using the default list.
func PublicSuffix(domain string) string {
	s, _ := defaultList.PublicSuffix(domain)
	return s
}

// SameRegistrableDomain reports whether two hostnames share an eTLD+1. Hosts
// that are themselves bare public suffixes never match.
func SameRegistrableDomain(a, b string) bool {
	ra, rb := RegistrableDomain(a), RegistrableDomain(b)
	return ra != "" && ra == rb
}

// Normalize lowercases a hostname and strips the trailing dot of a
// fully-qualified DNS name, the leading "*." of a wildcard SAN entry and
// surrounding whitespace. Lowercase ASCII input is trimmed without a copy.
func Normalize(host string) string {
	host = strings.TrimSpace(host)
	for i := 0; i < len(host); i++ {
		if c := host[i]; c >= 0x80 || 'A' <= c && c <= 'Z' {
			host = strings.ToLower(host)
			break
		}
	}
	host = strings.TrimSuffix(host, ".")
	host = strings.TrimPrefix(host, "*.")
	return host
}
