//go:build !race

package core

import "testing"

// deltaArms builds the two arms of BenchmarkDeltaApply at one scale: a
// single-site delta (the paper's diversification move: one site swapping
// its managed-DNS provider) applied to a primed graph, and the batch
// alternative, rebuilding the graph and re-running a from-scratch metrics
// fill. Both arms end with complete counts for the full indirect
// traversal, so they deliver the same queryable state.
func deltaArms(nSites, nProv int) (delta, rebuild func(*testing.B)) {
	g := metricsBenchGraph(nSites, nProv)
	provs := providerList(g)
	opts := AllIndirect()
	g.Metrics().Counts(opts) // primed: the served-snapshot steady state
	d := Delta{Ops: []Op{{
		Kind:    OpSwap,
		Name:    "site42",
		Service: DNS,
		From:    g.Site("site42").Deps[DNS].Providers[0],
		To:      "prov" + itoa(nProv-1),
	}}}

	delta = func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ng, stats, err := g.Apply(d)
			if err != nil {
				b.Fatal(err)
			}
			if stats.Rebuilt {
				b.Fatal("delta arm fell back to a rebuild")
			}
			conc, _ := ng.Metrics().Counts(opts)
			if conc["prov0"] == 0 {
				b.Fatal("empty counts")
			}
		}
	}
	rebuild = func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ng := NewGraph(g.Sites, provs)
			conc, _ := ng.Metrics().Counts(opts)
			if conc["prov0"] == 0 {
				b.Fatal("empty counts")
			}
		}
	}
	return delta, rebuild
}

// BenchmarkDeltaApply prices a single-site delta against a full rebuild at
// 2K and the paper's full 100K scale. TestGateDeltaSpeedup holds the 100K
// arms to a >= 10x speedup.
func BenchmarkDeltaApply(b *testing.B) {
	for _, tc := range []struct {
		name          string
		nSites, nProv int
	}{
		{"2K", 2000, 200},
		{"100K", 100000, 1000},
	} {
		delta, rebuild := deltaArms(tc.nSites, tc.nProv)
		b.Run("delta/"+tc.name, delta)
		b.Run("rebuild/"+tc.name, rebuild)
	}
}

// TestGateDeltaSpeedup is the incremental engine's acceptance gate, run by
// `make bench-gates`: at 100K sites and 1000 providers, applying a
// single-site delta must beat a from-scratch rebuild by at least 10x. It
// times BenchmarkDeltaApply's own 100K arms.
func TestGateDeltaSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("times the 100K benchmark arms")
	}
	delta, rebuild := deltaArms(100000, 1000)
	d, r := testing.Benchmark(delta), testing.Benchmark(rebuild)
	if d.N == 0 || r.N == 0 {
		t.Fatalf("a benchmark arm failed (delta N=%d, rebuild N=%d); run BenchmarkDeltaApply for its error", d.N, r.N)
	}
	dNs := float64(d.T.Nanoseconds()) / float64(d.N)
	rNs := float64(r.T.Nanoseconds()) / float64(r.N)
	speedup := rNs / dNs
	t.Logf("delta speedup at 100K: %.1fx (delta %.0f ns/op vs rebuild %.0f ns/op)", speedup, dNs, rNs)
	if speedup < 10 {
		t.Errorf("delta speedup at 100K is %.1fx, below the required 10x", speedup)
	}
}
