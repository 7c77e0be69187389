package measure

import (
	"context"
	"testing"

	"depscope/internal/ecosystem"
)

// TestCDNMapMatchDeterministic pins the tie-break order of CDNMap.Match.
// Two raw map keys that normalize to the same suffix ("Fast.net." and
// "fast.net") used to race on Go's randomized map iteration order, so the
// reported CDN flipped between runs. The match must now be stable: for equal
// suffixes the lexicographically smallest CDN name wins.
func TestCDNMapMatchDeterministic(t *testing.T) {
	m := CDNMap{
		"Fast.net.": "Zeta CDN",
		"fast.net":  "Alpha CDN",
	}
	for i := 0; i < 200; i++ {
		cdn, suffix, ok := m.compile().Match("edge.fast.net")
		if !ok || cdn != "Alpha CDN" || suffix != "fast.net" {
			t.Fatalf("iteration %d: Match = %q %q %v, want Alpha CDN fast.net true", i, cdn, suffix, ok)
		}
	}
	// The longest-suffix rule still dominates the name tie-break.
	m["cdn.fast.net"] = "Zulu CDN"
	for i := 0; i < 200; i++ {
		if cdn, _, _ := m.compile().Match("a.cdn.fast.net"); cdn != "Zulu CDN" {
			t.Fatalf("iteration %d: longest suffix lost to %q", i, cdn)
		}
	}
}

// TestRunNegativeWorkers: worker counts below 1 mean GOMAXPROCS. A negative
// value used to slip past the == 0 check and run the pool at a single
// goroutine; the pipeline must clamp it and still measure every site.
func TestRunNegativeWorkers(t *testing.T) {
	u, err := ecosystem.Generate(ecosystem.Options{Scale: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	w := ecosystem.Materialize(u, ecosystem.Y2020)
	res, err := Run(context.Background(), w.Sites, Config{
		Resolver: w.NewResolver(),
		Certs:    w.Certs,
		Pages:    w,
		CDNMap:   CDNMap(w.CNAMEToCDN),
		Workers:  -4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) != len(w.Sites) {
		t.Errorf("measured %d sites, want %d", len(res.Sites), len(w.Sites))
	}
}

// TestRunResolverHitRateStable: the resolver's Stats snapshot must agree
// between the live handle and the Diagnostics copy. A world's resolver asks
// its in-process store directly and has no cache, so every lookup counts as
// a query and none as a hit.
func TestRunResolverHitRateStable(t *testing.T) {
	u, err := ecosystem.Generate(ecosystem.Options{Scale: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	w := ecosystem.Materialize(u, ecosystem.Y2020)
	r := w.NewResolver()
	res, err := Run(context.Background(), w.Sites, Config{
		Resolver: r,
		Certs:    w.Certs,
		Pages:    w,
		CDNMap:   CDNMap(w.CNAMEToCDN),
		Workers:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	live := r.Stats()
	diag := res.Diagnostics.Resolver
	if live != diag {
		t.Errorf("live stats %+v != diagnostics snapshot %+v", live, diag)
	}
	if diag.Queries == 0 || diag.Hits != 0 || diag.Cached {
		t.Fatalf("stats %+v, want queries, no hits and no cache", diag)
	}
}
