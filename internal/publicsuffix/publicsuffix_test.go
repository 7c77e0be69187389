package publicsuffix

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestPublicSuffix(t *testing.T) {
	tests := []struct {
		domain, suffix string
		explicit       bool
	}{
		{"example.com", "com", true},
		{"www.example.com", "com", true},
		{"example.co.uk", "co.uk", true},
		{"www.example.co.uk", "co.uk", true},
		{"foo.github.io", "github.io", true},
		{"github.io", "github.io", true},
		{"com", "com", true},
		{"unknowntld-site.zz", "zz", false},
		{"a.b.unknowntld-site.zz", "zz", false},
		// Wildcard rule *.ck: any label under ck is a public suffix.
		{"foo.ck", "foo.ck", true},
		{"bar.foo.ck", "foo.ck", true},
		// Exception rule !www.ck: www.ck's suffix is just ck.
		{"www.ck", "ck", true},
		{"sub.www.ck", "ck", true},
		// Trailing dots and case are normalized.
		{"Example.COM.", "com", true},
	}
	for _, tt := range tests {
		got, explicit := defaultList.PublicSuffix(tt.domain)
		if got != tt.suffix || explicit != tt.explicit {
			t.Errorf("PublicSuffix(%q) = (%q, %v), want (%q, %v)",
				tt.domain, got, explicit, tt.suffix, tt.explicit)
		}
	}
}

func TestRegistrableDomain(t *testing.T) {
	tests := []struct{ domain, want string }{
		{"example.com", "example.com"},
		{"www.example.com", "example.com"},
		{"a.b.c.example.com", "example.com"},
		{"example.co.uk", "example.co.uk"},
		{"deep.www.example.co.uk", "example.co.uk"},
		{"site.github.io", "site.github.io"},
		{"asset.site.github.io", "site.github.io"},
		// Bare public suffixes have no registrable domain.
		{"com", ""},
		{"co.uk", ""},
		{"github.io", ""},
		{"", ""},
		// Wildcard/exception rules.
		{"x.foo.ck", "x.foo.ck"},
		{"www.ck", "www.ck"},
		{"city.kawasaki.jp", "city.kawasaki.jp"},
		{"a.city.kawasaki.jp", "city.kawasaki.jp"},
		{"other.kawasaki.jp", ""},
		{"a.other.kawasaki.jp", "a.other.kawasaki.jp"},
	}
	for _, tt := range tests {
		if got := RegistrableDomain(tt.domain); got != tt.want {
			t.Errorf("RegistrableDomain(%q) = %q, want %q", tt.domain, got, tt.want)
		}
	}
}

func TestSameRegistrableDomain(t *testing.T) {
	tests := []struct {
		a, b string
		want bool
	}{
		{"www.youtube.com", "m.youtube.com", true},
		{"youtube.com", "www.youtube.com", true},
		{"twitter.com", "dynect.net", false},
		// Same logical entity but different eTLD+1 must NOT match: this is
		// exactly the paper's alicdn.com vs alibabadns.com pitfall.
		{"ns.alicdn.com", "ns.alibabadns.com", false},
		// Bare suffixes never match, even with themselves.
		{"com", "com", false},
		{"github.io", "github.io", false},
		// But registrable domains under a PSL entry are distinct entities.
		{"a.github.io", "b.github.io", false},
		{"x.a.github.io", "y.a.github.io", true},
	}
	for _, tt := range tests {
		if got := SameRegistrableDomain(tt.a, tt.b); got != tt.want {
			t.Errorf("SameRegistrableDomain(%q, %q) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestNormalize(t *testing.T) {
	tests := []struct{ in, want string }{
		{"Example.COM.", "example.com"},
		{"*.cdn.example.net", "cdn.example.net"},
		{"  host.io  ", "host.io"},
		{".", ""},
	}
	for _, tt := range tests {
		if got := Normalize(tt.in); got != tt.want {
			t.Errorf("Normalize(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestNewListCustomRules(t *testing.T) {
	l := NewList([]string{"internal", "corp.internal", "*.dyn.internal", "!safe.dyn.internal", "", "  "})
	if got := l.RegistrableDomain("svc.team.corp.internal"); got != "team.corp.internal" {
		t.Errorf("custom list: got %q", got)
	}
	if got := l.RegistrableDomain("a.b.dyn.internal"); got != "a.b.dyn.internal" {
		t.Errorf("wildcard custom rule: got %q", got)
	}
	if got := l.RegistrableDomain("safe.dyn.internal"); got != "safe.dyn.internal" {
		t.Errorf("exception custom rule: got %q", got)
	}
}

// Property: the registrable domain is always a suffix of the input and has
// exactly one more label than its public suffix.
func TestPropertyRegistrableDomainStructure(t *testing.T) {
	suffixes := []string{"com", "net", "org", "co.uk", "io", "github.io"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		labels := 1 + rng.Intn(4)
		parts := make([]string, labels)
		for i := range parts {
			n := 1 + rng.Intn(10)
			b := make([]byte, n)
			for j := range b {
				b[j] = byte('a' + rng.Intn(26))
			}
			parts[i] = string(b)
		}
		domain := strings.Join(parts, ".") + "." + suffixes[rng.Intn(len(suffixes))]
		rd := RegistrableDomain(domain)
		if rd == "" {
			return false
		}
		if !strings.HasSuffix(domain, rd) {
			return false
		}
		ps, _ := defaultList.PublicSuffix(domain)
		return strings.Count(rd, ".") == strings.Count(ps, ".")+1 &&
			strings.HasSuffix(rd, ps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: RegistrableDomain is idempotent.
func TestPropertyRegistrableDomainIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		hosts := []string{"www.example.com", "a.b.example.co.uk", "x.site.github.io", "deep.chain.of.labels.org"}
		h := hosts[rng.Intn(len(hosts))]
		rd := RegistrableDomain(h)
		return RegistrableDomain(rd) == rd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRegistrableDomain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RegistrableDomain("static.assets.cdn.example.co.uk")
	}
}
