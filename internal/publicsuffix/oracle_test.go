package publicsuffix

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// oracleList is the Split/Join matcher the direct one replaced: three rule
// maps and one joined candidate string per label. It is kept here only as
// the reference the direct matcher is pinned to.
type oracleList struct {
	normal, wildcard, exception map[string]bool
}

func newOracleList(rules []string) *oracleList {
	l := &oracleList{
		normal:    make(map[string]bool),
		wildcard:  make(map[string]bool),
		exception: make(map[string]bool),
	}
	for _, r := range rules {
		r = strings.ToLower(strings.TrimSpace(r))
		switch {
		case r == "":
		case strings.HasPrefix(r, "!"):
			l.exception[r[1:]] = true
		case strings.HasPrefix(r, "*."):
			l.wildcard[r[2:]] = true
		default:
			l.normal[r] = true
		}
	}
	return l
}

func oracleNormalize(host string) string {
	host = strings.ToLower(strings.TrimSpace(host))
	host = strings.TrimSuffix(host, ".")
	host = strings.TrimPrefix(host, "*.")
	return host
}

func (l *oracleList) publicSuffix(domain string) (string, bool) {
	domain = oracleNormalize(domain)
	if domain == "" {
		return "", false
	}
	labels := strings.Split(domain, ".")
	for i := 0; i < len(labels); i++ {
		cand := strings.Join(labels[i:], ".")
		if l.exception[cand] {
			if idx := strings.IndexByte(cand, '.'); idx >= 0 {
				return cand[idx+1:], true
			}
			return cand, true
		}
		if i > 0 && l.wildcard[cand] {
			return strings.Join(labels[i-1:], "."), true
		}
		if l.normal[cand] {
			return cand, true
		}
	}
	return labels[len(labels)-1], false
}

func (l *oracleList) registrableDomain(domain string) string {
	domain = oracleNormalize(domain)
	if domain == "" {
		return ""
	}
	suffix, _ := l.publicSuffix(domain)
	if domain == suffix {
		return ""
	}
	rest := strings.TrimSuffix(domain, "."+suffix)
	if rest == domain {
		return ""
	}
	labels := strings.Split(rest, ".")
	return labels[len(labels)-1] + "." + suffix
}

var defaultOracle = newOracleList(defaultRules)

// checkAgainstOracle compares Normalize, PublicSuffix and RegistrableDomain
// of l with the oracle built from the same rules.
func checkAgainstOracle(t *testing.T, l *List, o *oracleList, host string) {
	t.Helper()
	if got, want := Normalize(host), oracleNormalize(host); got != want {
		t.Fatalf("Normalize(%q) = %q, oracle %q", host, got, want)
	}
	gotS, gotE := l.PublicSuffix(host)
	wantS, wantE := o.publicSuffix(host)
	if gotS != wantS || gotE != wantE {
		t.Fatalf("PublicSuffix(%q) = (%q, %v), oracle (%q, %v)", host, gotS, gotE, wantS, wantE)
	}
	if got, want := l.RegistrableDomain(host), o.registrableDomain(host); got != want {
		t.Fatalf("RegistrableDomain(%q) = %q, oracle %q", host, got, want)
	}
}

// oracleCases names one host per rule form and per normalization quirk.
var oracleCases = []string{
	"", ".", "..", "*.", "*", " ", "com", "example.com", "www.example.co.uk",
	"a.b.c.d.e.example.com", "s3.amazonaws.com", "bucket.s3.amazonaws.com",
	"x.y.s3.amazonaws.com", "foo.github.io", "github.io",
	"bd", "co.bd", "x.co.bd", "a.x.co.bd", "ck", "www.ck", "a.www.ck", "foo.ck",
	"kawasaki.jp", "city.kawasaki.jp", "a.city.kawasaki.jp", "other.kawasaki.jp",
	"a.other.kawasaki.jp", "Example.COM.", "  www.Example.Co.UK.  ", "*.cdn.example.net",
	"*.*.example.com", "Co..bd..", "co..bd.", "a..com", ".com", "com..", "x.",
	"x. .", " *.a.com", "\tstatic.example.org\n", "ÉCOLE.fr", "straße.de",
	"İstanbul.com.tr", "unknowntld-site.zz", "a.b.unknowntld-site.zz",
}

func TestDirectMatchesOracleCases(t *testing.T) {
	for _, h := range oracleCases {
		checkAgainstOracle(t, defaultList, defaultOracle, h)
	}
	// Normalizing twice is part of the contract: the second pass trims the
	// second trailing dot, so the suffix no longer ends the domain.
	if got := RegistrableDomain("Co..bd.."); got != "" {
		t.Fatalf(`RegistrableDomain("Co..bd..") = %q, want ""`, got)
	}
}

// randomHost draws a host from labels that hit every default rule form,
// with the case, wildcard-prefix, whitespace, empty-label and trailing-dot
// variations Normalize has to handle.
func randomHost(rng *rand.Rand) string {
	tails := []string{
		"com", "co.uk", "s3.amazonaws.com", "github.io", "bd", "co.bd", "ck",
		"www.ck", "kawasaki.jp", "city.kawasaki.jp", "zz", "jp", "herokuapp.com",
	}
	heads := []string{"a", "www", "city", "co", "kawasaki", "s3", "", "x-1", "Mixed"}
	var b strings.Builder
	if rng.Intn(8) == 0 {
		b.WriteString(" ")
	}
	if rng.Intn(6) == 0 {
		b.WriteString("*.")
	}
	for n := rng.Intn(4); n > 0; n-- {
		b.WriteString(heads[rng.Intn(len(heads))])
		b.WriteByte('.')
	}
	b.WriteString(tails[rng.Intn(len(tails))])
	for n := rng.Intn(4); n > 1; n-- {
		b.WriteByte('.')
	}
	if rng.Intn(8) == 0 {
		b.WriteString("\t")
	}
	h := b.String()
	if rng.Intn(4) == 0 {
		h = strings.ToUpper(h)
	}
	return h
}

func TestPropertyDirectMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 20000; i++ {
		checkAgainstOracle(t, defaultList, defaultOracle, randomHost(rng))
	}
}

// TestPropertyCustomListsMatchOracle draws small rule sets over a tiny label
// alphabet, so keys of every depth, overlapping forms and the degenerate
// rules ("!", "*.") collide with the probed hosts often.
func TestPropertyCustomListsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []string{"a", "b", "c", ""}
	word := func(maxLabels int) string {
		parts := make([]string, 1+rng.Intn(maxLabels))
		for i := range parts {
			parts[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return strings.Join(parts, ".")
	}
	for i := 0; i < 300; i++ {
		var rules []string
		for n := rng.Intn(8); n > 0; n-- {
			rules = append(rules, []string{"", "!", "*."}[rng.Intn(3)]+word(4))
		}
		l, o := NewList(rules), newOracleList(rules)
		for j := 0; j < 100; j++ {
			checkAgainstOracle(t, l, o, word(6)+[]string{"", ".", ".."}[rng.Intn(3)])
		}
	}
	var empty List
	checkAgainstOracle(t, &empty, newOracleList(nil), "www.example.com")
}

func FuzzRegistrableDomain(f *testing.F) {
	for _, h := range oracleCases {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, host string) {
		checkAgainstOracle(t, defaultList, defaultOracle, host)
	})
}

func TestRegistrableDomainAllocs(t *testing.T) {
	for _, h := range []string{"static.assets.cdn.example.co.uk", "ns1.dynect.net.",
		"a.x.co.bd", "a.city.kawasaki.jp", "site.github.io", "www.ck"} {
		allocs := testing.AllocsPerRun(200, func() {
			RegistrableDomain(h)
			defaultList.PublicSuffix(h)
		})
		if allocs != 0 {
			t.Errorf("RegistrableDomain(%q) allocates %.1f per run, want 0", h, allocs)
		}
	}
}

// mixHosts is about 4K distinct hosts spread over every rule form, the
// shape of the host population one measurement run asks tld(x) about.
func mixHosts() []string {
	tails := []string{"com", "net", "org", "co.uk", "com.au", "github.io",
		"s3.amazonaws.com", "x.bd", "foo.ck", "www.ck", "city.kawasaki.jp",
		"other.kawasaki.jp", "unknown-tld"}
	var hosts []string
	for i := 0; len(hosts) < 4096; i++ {
		tail := tails[i%len(tails)]
		switch i % 4 {
		case 0:
			hosts = append(hosts, fmt.Sprintf("site%d.%s", i, tail))
		case 1:
			hosts = append(hosts, fmt.Sprintf("www.site%d.%s", i, tail))
		case 2:
			hosts = append(hosts, fmt.Sprintf("ns1.dns%d.%s.", i, tail))
		default:
			hosts = append(hosts, fmt.Sprintf("img.cdn.site%d.%s", i, tail))
		}
	}
	return hosts
}

func BenchmarkRegistrableDomainMix(b *testing.B) {
	hosts := mixHosts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RegistrableDomain(hosts[i%len(hosts)])
	}
}
