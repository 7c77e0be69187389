package measure

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"depscope/internal/chain"
	"depscope/internal/ecosystem"
)

// chainWorld materializes a small 2020 world with resource chains grown in.
func chainWorld(t testing.TB, cfg chain.Config) (*ecosystem.Universe, *ecosystem.World) {
	t.Helper()
	u, err := ecosystem.Generate(ecosystem.Options{Scale: 300, Seed: 2020})
	if err != nil {
		t.Fatal(err)
	}
	w := ecosystem.Materialize(u, ecosystem.Y2020)
	if cfg.Enabled() {
		ecosystem.MaterializeChains(u, w, cfg)
	}
	return u, w
}

func runChains(t testing.TB, w *ecosystem.World, cfg *chain.Config) *Results {
	t.Helper()
	res, err := Run(context.Background(), w.Sites, Config{
		Resolver: w.NewResolver(),
		Certs:    w.Certs,
		Pages:    w,
		CDNMap:   CDNMap(w.CNAMEToCDN),
		Chains:   cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestChainClassification pins the chain stage's contract: per-site refs are
// sorted, depth-bounded, vendor-deduplicated, and every referenced vendor
// has a resolved DNS arrangement in ResourceToDNS.
func TestChainClassification(t *testing.T) {
	cfg := chain.Default()
	_, w := chainWorld(t, cfg)
	res := runChains(t, w, &cfg)

	sitesWith := 0
	vendors := make(map[string]bool)
	for _, sr := range res.Sites {
		if len(sr.Chains) == 0 {
			continue
		}
		sitesWith++
		if !sort.SliceIsSorted(sr.Chains, func(i, j int) bool {
			return sr.Chains[i].Provider < sr.Chains[j].Provider
		}) {
			t.Errorf("%s: chain refs not sorted: %v", sr.Site, sr.Chains)
		}
		seen := make(map[string]bool)
		for _, ref := range sr.Chains {
			if ref.Depth < 1 || ref.Depth > cfg.MaxDepth {
				t.Errorf("%s: depth %d outside [1,%d]", sr.Site, ref.Depth, cfg.MaxDepth)
			}
			if seen[ref.Provider] {
				t.Errorf("%s: vendor %s listed twice", sr.Site, ref.Provider)
			}
			seen[ref.Provider] = true
			vendors[ref.Provider] = true
			// The site never implicitly trusts itself.
			if strings.HasSuffix(ref.Provider, sr.Site) {
				t.Errorf("%s: self-referential chain edge %v", sr.Site, ref)
			}
		}
	}
	if sitesWith == 0 {
		t.Fatal("no site has chain edges")
	}
	for v := range vendors {
		if _, ok := res.ResourceToDNS[v]; !ok {
			t.Errorf("vendor %s has no resolved DNS arrangement", v)
		}
	}
	for v := range res.ResourceToDNS {
		if !vendors[v] {
			t.Errorf("ResourceToDNS has unreferenced vendor %s", v)
		}
	}
}

// TestChainsOffByteIdentity is the satellite-1 pinning property at the wire
// level: a nil chain config and a disabled (MaxDepth 1) one produce results
// that marshal byte-identically to each other, and the JSON carries no
// chain-specific keys at all — which is what keeps the measurement pinning
// hashes and the dyn-replay goldens untouched.
func TestChainsOffByteIdentity(t *testing.T) {
	_, w := chainWorld(t, chain.Config{MaxDepth: 1})

	nilRes := runChains(t, w, nil)
	offCfg := chain.Config{MaxDepth: 1}
	offRes := runChains(t, w, &offCfg)

	if h1, h2 := measurementHash(t, nilRes), measurementHash(t, offRes); h1 != h2 {
		t.Fatalf("nil and MaxDepth=1 chain configs hash differently: %s vs %s", h1, h2)
	}

	// The omitempty tags are load-bearing: chains-off site results must not
	// emit a Chains key (that is what keeps the golden measurement hashes
	// and the dyn-replay goldens byte-identical).
	sitesJSON, err := json.Marshal(nilRes.Sites)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(sitesJSON, []byte(`"Chains"`)) {
		t.Error(`chains-off results leak "Chains" into the wire format`)
	}
	if nilRes.ResourceToDNS != nil || nilRes.ResourceToCDN != nil {
		t.Error("chains-off results allocate Resource arrangement maps")
	}
}

// BenchmarkChainMeasure benchmarks the chain-enabled pipeline (all four
// passes) with the chain stage doing real work: chains are materialized
// once, each iteration re-measures with a cold resolver cache. The custom
// edges/s metric counts classified chain edges per second of wall time.
// docs/bench.sh appends its numbers to BENCH_chain.json; the 100K arm is the
// paper-scale datapoint and only sensible with -benchtime=1x.
func BenchmarkChainMeasure(b *testing.B) {
	arms := []struct {
		label string
		scale int
	}{{"scale-2K", 2000}, {"scale-100K", 100000}}
	for _, arm := range arms {
		scale := arm.scale
		b.Run(arm.label, func(b *testing.B) {
			if scale > 10000 && testing.Short() {
				b.Skip("paper-scale arm")
			}
			u, err := ecosystem.Generate(ecosystem.Options{Scale: scale, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			w := ecosystem.Materialize(u, ecosystem.Y2020)
			cfg := chain.Default()
			ecosystem.MaterializeChains(u, w, cfg)
			b.ResetTimer()
			edges := 0
			for i := 0; i < b.N; i++ {
				res, err := Run(context.Background(), w.Sites, Config{
					Resolver: w.NewResolver(),
					Certs:    w.Certs,
					Pages:    w,
					CDNMap:   CDNMap(w.CNAMEToCDN),
					Chains:   &cfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				edges = 0
				for _, sr := range res.Sites {
					edges += len(sr.Chains)
				}
				if edges == 0 {
					b.Fatal("no chain edges classified")
				}
			}
			b.ReportMetric(float64(edges)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

// chainGoldenHashes pin the streamHash view (the pinned subset plus
// ResourceToDNS/ResourceToCDN) of a chains-on Run at scale 2000, workers 8,
// with chain.Default(). They were captured while Run still carried its own
// monolithic chain pass, so they hold the streaming chain pass to that
// walk's output byte for byte.
var chainGoldenHashes = map[int64]map[ecosystem.Snapshot]string{
	1: {
		ecosystem.Y2016: "9733c54713715333f595c5cd7c764fb1bd774da59f2d08756bc41ca8def42e69",
		ecosystem.Y2020: "24137ac009ddae17ca0bed126802a4ba495f9171b62fac2e1383350a2f1bcd56",
	},
	2020: {
		ecosystem.Y2016: "78bb6bbbf8168a18ff3a5a40df9368fed138157c3fd146c83be388853195a51e",
		ecosystem.Y2020: "74b5c215a197984991ee06fc187e488380493524a37e7fce2f5bc80ecd62fdc9",
	},
}

// TestChainMeasurementGolden pins pass 4 (the chain inter-service pass),
// which TestRunPinnedAgainstPreRefactor does not cover, for seeds {1, 2020}
// at scale 2K in both snapshots.
func TestChainMeasurementGolden(t *testing.T) {
	cfg := chain.Default()
	for seed, wantBySnap := range chainGoldenHashes {
		u, err := ecosystem.Generate(ecosystem.Options{Scale: 2000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for snap, want := range wantBySnap {
			w := ecosystem.Materialize(u, snap)
			ecosystem.MaterializeChains(u, w, cfg)
			res, err := Run(context.Background(), w.Sites, Config{
				Resolver: w.NewResolver(),
				Certs:    w.Certs,
				Pages:    w,
				CDNMap:   CDNMap(w.CNAMEToCDN),
				Workers:  8,
				Chains:   &cfg,
			})
			if err != nil {
				t.Fatalf("seed %d snap %s: %v", seed, snap, err)
			}
			if len(res.ResourceToDNS) == 0 {
				t.Fatalf("seed %d snap %s: chains-on run resolved no vendors", seed, snap)
			}
			if got := streamHash(t, res); got != want {
				t.Errorf("seed %d snap %s: chain measurement hash %s, want %s", seed, snap, got, want)
			}
		}
	}
}
