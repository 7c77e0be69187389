package ecosystem

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/url"
	"runtime"
	"testing"

	"depscope/internal/chain"
	"depscope/internal/publicsuffix"
)

// pageDigest hashes every landing page of w in rank order, resource by
// resource: URL, Host and Parent. SiteFingerprints only sees the rendered
// HTML (URLs alone), so a wrong host or parent index slips past it; this
// digest pins all three fields.
func pageDigest(t *testing.T, w *World) string {
	t.Helper()
	h := sha256.New()
	for _, site := range w.Sites {
		p := w.Pages[site]
		if p == nil {
			fmt.Fprintf(h, "%s absent\n", site)
			continue
		}
		fmt.Fprintf(h, "%s %d\n", site, len(p.Resources))
		for _, r := range p.Resources {
			fmt.Fprintf(h, "%s\t%s\t%d\n", r.URL, r.Host, r.Parent)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkPageHosts asserts every resource's Host is what deriving it from the
// URL would give (webpage.Page.AddResource's rule), and every Parent points
// at an earlier resource.
func checkPageHosts(t *testing.T, w *World) {
	t.Helper()
	for _, site := range w.Sites {
		p := w.Pages[site]
		for i, r := range p.Resources {
			u, err := url.Parse(r.URL)
			if err != nil {
				t.Fatalf("%s resource %d: %v", site, i, err)
			}
			if want := publicsuffix.Normalize(u.Hostname()); r.Host != want {
				t.Fatalf("%s resource %d (%s): host %q, want %q", site, i, r.URL, r.Host, want)
			}
			if r.Parent < 0 || r.Parent > i {
				t.Fatalf("%s resource %d: parent %d does not precede it", site, i, r.Parent)
			}
		}
	}
}

// pagesGolden pins pageDigest of the 2K monolithic world per seed,
// snapshot and chain setting.
var pagesGolden = map[string]string{
	"seed=1 snap=2016 chains=false":    "5360fd320c0714b5e5063294722628815fb114822a6e4e9ba21d6d7011f9957a",
	"seed=1 snap=2016 chains=true":     "440fa936e6217b72122f665dfff8eebbc004abac478759e642ecbd0f5fb9c968",
	"seed=1 snap=2020 chains=false":    "47dc92c3e45fff9950f6ac14e1c7e5ecfd02a74bcbbf0c7379a91a298ff12d08",
	"seed=1 snap=2020 chains=true":     "7ac37d3e6a43a36f020f115f35b7006a11fe842b2d616e0f21fc5554ab72ca93",
	"seed=2020 snap=2016 chains=false": "bb2db1fa89a3cf259ca54d40b461b4195117c84689e2b273a3d429600bfe8d3b",
	"seed=2020 snap=2016 chains=true":  "dfb524333b2ec6b5ecb478379deddddc92a5f7885404732cb81e222f129e3359",
	"seed=2020 snap=2020 chains=false": "c760e8342b25c2854984bb4d2863a6b2a9a979c1a1dc774b329120165cdf7361",
	"seed=2020 snap=2020 chains=true":  "4195880575cbcd4d5ed8e869d66e1cb706d6944415deae1cbd0975e0185f8038",
}

// TestPagesGolden pins landing pages and chain growth byte for byte (URL,
// Host, Parent of every resource) at 2K for seeds 1 and 2020, both
// snapshots, chains off and on, and requires the streaming materializer to
// produce the identical pages at awkward batch sizes.
func TestPagesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("materializes 2K worlds 32 times")
	}
	cfg := chain.Default()
	for _, seed := range []int64{1, 2020} {
		u, err := Generate(Options{Scale: 2000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, snap := range []Snapshot{Y2016, Y2020} {
			for _, chains := range []bool{false, true} {
				key := fmt.Sprintf("seed=%d snap=%s chains=%t", seed, snap, chains)
				var ccfg *chain.Config
				mono := Materialize(u, snap)
				if chains {
					ccfg = &cfg
					MaterializeChains(u, mono, cfg)
				}
				checkPageHosts(t, mono)
				got := pageDigest(t, mono)
				if want := pagesGolden[key]; got != want {
					t.Errorf("%s: page digest %s, want pinned %s", key, got, want)
				}
				for _, batch := range []int{1000, 64, 31} {
					if d := pageDigest(t, chunkedWorld(t, u, snap, ccfg, batch)); d != got {
						t.Errorf("%s batch %d: chunked page digest %s, monolithic %s", key, batch, d, got)
					}
				}
			}
		}
	}
}

// TestPagesWorkerDeterminism builds the same chained world with one and
// with eight page workers and requires identical pages: the parallel page
// routine's output is a function of the universe alone. Under -race it also
// checks the page tasks share no unsynchronized state.
func TestPagesWorkerDeterminism(t *testing.T) {
	u, err := Generate(Options{Scale: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := chain.Default()
	digest := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		w := Materialize(u, Y2020)
		MaterializeChains(u, w, cfg)
		return pageDigest(t, w)
	}
	if one, eight := digest(1), digest(8); one != eight {
		t.Errorf("page digest with GOMAXPROCS(1) %s != GOMAXPROCS(8) %s", one, eight)
	}
}

// TestEnableChainsAfterAddSitesPanics: enabling chains once sites have been
// added would leave those sites' pages without chains, so it panics instead
// of producing a silently chain-less report.
func TestEnableChainsAfterAddSitesPanics(t *testing.T) {
	u, err := Generate(Options{Scale: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := NewChunked(u, Y2020)
	c.AddSites(0, c.Len())
	c.MaterializePages(0, c.Len())
	defer func() {
		if recover() == nil {
			t.Fatal("EnableChains after AddSites did not panic")
		}
	}()
	c.EnableChains(chain.Default())
}
