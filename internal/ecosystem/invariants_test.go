package ecosystem

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"depscope/internal/chain"
	"depscope/internal/measure"
)

// These tests guard the calibration tables themselves: every provider a
// share table references must exist as a provider of the right service in
// the right snapshot, and the inter-service dependency lists must point at
// existing DNS/CDN providers. A typo in calibration.go or providers.go
// would otherwise surface as a confusing panic deep inside materialization.

func calProviders(t *testing.T) (*Calibration, *Universe) {
	t.Helper()
	u, err := Generate(Options{Scale: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return DefaultCalibration(), u
}

func checkShares(t *testing.T, u *Universe, shares []Share, svc Service, snap Snapshot, table string) {
	t.Helper()
	for _, s := range shares {
		p := u.Provider(s.Provider)
		if p == nil {
			t.Errorf("%s: provider %q does not exist", table, s.Provider)
			continue
		}
		if p.Service != svc {
			t.Errorf("%s: provider %q is %v, want %v", table, s.Provider, p.Service, svc)
		}
		exists := p.Exists2020
		if snap == Y2016 {
			exists = p.Exists2016
		}
		if !exists {
			t.Errorf("%s: provider %q does not exist in %s", table, s.Provider, snap)
		}
		if s.Weight <= 0 {
			t.Errorf("%s: provider %q has non-positive weight", table, s.Provider)
		}
	}
}

func TestCalibrationSharesReferenceRealProviders(t *testing.T) {
	cal, u := calProviders(t)
	for _, snap := range []Snapshot{Y2016, Y2020} {
		dns := cal.DNS[snap]
		checkShares(t, u, dns.ImpactShares, SvcDNS, snap, "DNS impact "+snap.String())
		checkShares(t, u, dns.RedundantShares, SvcDNS, snap, "DNS redundant "+snap.String())
		checkShares(t, u, dns.Band0Redundant, SvcDNS, snap, "DNS band0 "+snap.String())
		cdn := cal.CDN[snap]
		checkShares(t, u, cdn.Shares, SvcCDN, snap, "CDN shares "+snap.String())
		checkShares(t, u, cdn.Band0Shares, SvcCDN, snap, "CDN band0 "+snap.String())
		ca := cal.CA[snap]
		checkShares(t, u, ca.Shares, SvcCA, snap, "CA shares "+snap.String())
		for name := range ca.StapleRate {
			if u.Provider(name) == nil {
				t.Errorf("CA staple rate references unknown provider %q", name)
			}
		}
	}
}

func TestProviderDepsReferenceRealProviders(t *testing.T) {
	_, u := calProviders(t)
	for name, p := range u.Providers {
		for snap, dep := range p.DNSDeps {
			for _, d := range dep.Third {
				dp := u.Provider(d)
				if dp == nil || dp.Service != SvcDNS {
					t.Errorf("%s: DNS dep %q invalid", name, d)
					continue
				}
				if (snap == Y2016 && p.Exists2016 && !dp.Exists2016) ||
					(snap == Y2020 && p.Exists2020 && !dp.Exists2020) {
					t.Errorf("%s: DNS dep %q absent in %s", name, d, snap)
				}
			}
		}
		for snap, dep := range p.CDNDeps {
			for _, d := range dep.Third {
				dp := u.Provider(d)
				if dp == nil || dp.Service != SvcCDN {
					t.Errorf("%s: CDN dep %q invalid", name, d)
					continue
				}
				if (snap == Y2016 && p.Exists2016 && !dp.Exists2016) ||
					(snap == Y2020 && p.Exists2020 && !dp.Exists2020) {
					t.Errorf("%s: CDN dep %q absent in %s", name, d, snap)
				}
			}
		}
	}
}

func TestModeMixesSumToOne(t *testing.T) {
	cal := DefaultCalibration()
	for _, snap := range []Snapshot{Y2016, Y2020} {
		for b, mix := range cal.DNS[snap].Mix {
			sum := mix.Private + mix.Single + mix.Multi + mix.Mixed
			if sum < 0.99 || sum > 1.01 {
				t.Errorf("DNS mix %s band %d sums to %.3f", snap, b, sum)
			}
		}
	}
}

func TestSiteSnapshotsConsistent(t *testing.T) {
	_, u := calProviders(t)
	for _, snap := range []Snapshot{Y2016, Y2020} {
		for _, s := range u.List(snap) {
			ss := s.Snap[snap]
			if !ss.Exists {
				continue
			}
			switch ss.DNSMode {
			case DepPrivate:
				if len(ss.DNSProviders) != 0 {
					t.Fatalf("%s %s: private with providers %v", s.Domain, snap, ss.DNSProviders)
				}
			case DepSingleThird, DepPrivatePlusThird:
				if len(ss.DNSProviders) != 1 {
					t.Fatalf("%s %s: %v with providers %v", s.Domain, snap, ss.DNSMode, ss.DNSProviders)
				}
			case DepMultiThird:
				if len(ss.DNSProviders) != 2 || ss.DNSProviders[0] == ss.DNSProviders[1] {
					t.Fatalf("%s %s: multi with providers %v", s.Domain, snap, ss.DNSProviders)
				}
			default:
				t.Fatalf("%s %s: DNS mode %v", s.Domain, snap, ss.DNSMode)
			}
			if ss.CDNMode == DepSingleThird && len(ss.CDNProviders) != 1 {
				t.Fatalf("%s %s: CDN single with %v", s.Domain, snap, ss.CDNProviders)
			}
			if ss.CDNMode == DepMultiThird && len(ss.CDNProviders) != 2 {
				t.Fatalf("%s %s: CDN multi with %v", s.Domain, snap, ss.CDNProviders)
			}
			if ss.PrivateCDN && ss.CDNMode != DepPrivate {
				t.Fatalf("%s %s: private CDN flag with mode %v", s.Domain, snap, ss.CDNMode)
			}
			if ss.HTTPS && !ss.PrivateCA && ss.CA == "" {
				t.Fatalf("%s %s: HTTPS third-party site without CA", s.Domain, snap)
			}
			if !ss.HTTPS && (ss.CA != "" || ss.Stapled) {
				t.Fatalf("%s %s: CA fields without HTTPS", s.Domain, snap)
			}
			// Alias-based traps require SAN evidence, hence HTTPS.
			if (ss.CDNTrap == TrapPrivateCDNAlias || ss.CDNTrap == TrapPrivateCDNForeignSOA ||
				ss.DNSTrap == TrapVanityNS) && !ss.HTTPS {
				t.Fatalf("%s %s: alias trap on non-HTTPS site", s.Domain, snap)
			}
		}
	}
}

// chunkedWorld drives the streaming materializer to completion — zones in
// batches, then pages in batches, without releasing them — so the result can
// be compared against the monolithic Materialize output.
func chunkedWorld(t *testing.T, u *Universe, snap Snapshot, cfg *chain.Config, batch int) *World {
	t.Helper()
	c := NewChunked(u, snap)
	if cfg != nil {
		c.EnableChains(*cfg)
	}
	n := c.Len()
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		c.AddSites(lo, hi)
	}
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		c.MaterializePages(lo, hi)
	}
	return c.World()
}

// siteFingerprints fingerprints every site of w with its pages resident.
func siteFingerprints(w *World) map[string]string {
	fp := w.Fingerprinter()
	out := make(map[string]string, len(w.Sites))
	for _, site := range w.Sites {
		out[site] = fp(site)
	}
	return out
}

// TestChunkedMatchesMonolithic pins the streaming materializer to the
// monolithic one: for the same universe, a chunked world with every batch
// materialized has the identical ranked site list and identical per-site
// content fingerprints (zones, certificates, pages, chain growth, CNAME→CDN
// map — everything the measurement can observe), for both snapshots, with
// and without chains, and across awkward batch sizes. Fingerprinting each
// batch through World.Fingerprinter while that batch's pages are live, as a
// checkpointed run does, yields the same fingerprints.
func TestChunkedMatchesMonolithic(t *testing.T) {
	u, err := Generate(Options{Scale: 400, Seed: 2020})
	if err != nil {
		t.Fatal(err)
	}
	chains := chain.Default()
	for _, cfg := range []*chain.Config{nil, &chains} {
		for _, snap := range []Snapshot{Y2016, Y2020} {
			mono := Materialize(u, snap)
			if cfg != nil {
				MaterializeChains(u, mono, *cfg)
			}
			want := siteFingerprints(mono)
			for _, batch := range []int{1000, 64, 31} {
				w := chunkedWorld(t, u, snap, cfg, batch)
				if len(w.Sites) != len(mono.Sites) {
					t.Fatalf("%s batch %d: %d sites, want %d", snap, batch, len(w.Sites), len(mono.Sites))
				}
				for i := range w.Sites {
					if w.Sites[i] != mono.Sites[i] {
						t.Fatalf("%s batch %d: site order diverges at %d: %s vs %s",
							snap, batch, i, w.Sites[i], mono.Sites[i])
					}
				}
				got := siteFingerprints(w)
				mismatches := 0
				for site, fp := range want {
					if got[site] != fp {
						t.Errorf("%s batch %d: fingerprint mismatch for %s", snap, batch, site)
						if mismatches++; mismatches > 3 {
							t.Fatal("too many fingerprint mismatches")
						}
					}
				}

				c := NewChunked(u, snap)
				if cfg != nil {
					c.EnableChains(*cfg)
				}
				c.AddSites(0, c.Len())
				fp := c.World().Fingerprinter()
				streamed := make(map[string]string, c.Len())
				for lo := 0; lo < c.Len(); lo += batch {
					hi := min(lo+batch, c.Len())
					c.MaterializePages(lo, hi)
					for _, site := range c.World().Sites[lo:hi] {
						streamed[site] = fp(site)
					}
					c.ReleasePages(lo, hi)
				}
				if !reflect.DeepEqual(streamed, want) {
					t.Errorf("%s chains=%t batch %d: streamed fingerprints differ from the resident world's",
						snap, cfg != nil, batch)
				}
				if n := len(c.World().Pages); n != 0 {
					t.Errorf("%s chains=%t batch %d: %d pages left resident", snap, cfg != nil, batch, n)
				}
			}
		}
	}
}

// TestStreamedMeasurementWorkerDeterminism pins worker-count independence on
// the full streaming path (chunked materialization + batched measurement
// with page release): the measurement output is a pure function of the
// universe, not of scheduling.
func TestStreamedMeasurementWorkerDeterminism(t *testing.T) {
	u, err := Generate(Options{Scale: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := chain.Default()
	hashRes := func(res *measure.Results) string {
		view := struct {
			Sites           []measure.SiteResult
			NSConcentration map[string]int
			CDNToDNS        map[string]measure.ProviderDep
			CAToDNS         map[string]measure.ProviderDep
			CAToCDN         map[string]measure.ProviderDep
			ResourceToDNS   map[string]measure.ProviderDep
			ResourceToCDN   map[string]measure.ProviderDep
		}{res.Sites, res.NSConcentration, res.CDNToDNS, res.CAToDNS, res.CAToCDN,
			res.ResourceToDNS, res.ResourceToCDN}
		b, err := json.Marshal(view)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}

	const batch = 75
	var want string
	for i, workers := range []int{1, 6} {
		c := NewChunked(u, Y2020)
		c.EnableChains(cfg)
		w := c.World()
		st, err := measure.NewStream(c.SiteNames(), measure.Config{
			Resolver: w.NewResolver(),
			Certs:    w.Certs,
			Pages:    w,
			CDNMap:   measure.CDNMap(w.CNAMEToCDN),
			Workers:  workers,
			Chains:   &cfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		n := c.Len()
		for lo := 0; lo < n; lo += batch {
			hi := lo + batch
			if hi > n {
				hi = n
			}
			c.AddSites(lo, hi)
			if err := st.ResolveBatch(ctx, lo, hi); err != nil {
				t.Fatal(err)
			}
		}
		st.Seal()
		for lo := 0; lo < n; lo += batch {
			hi := lo + batch
			if hi > n {
				hi = n
			}
			c.MaterializePages(lo, hi)
			if err := st.MeasureBatch(ctx, lo, hi); err != nil {
				t.Fatal(err)
			}
			c.ReleasePages(lo, hi)
		}
		res, err := st.Finish(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got := hashRes(res)
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("workers=%d: streamed measurement hash %s != workers=1 %s", workers, got, want)
		}
	}
}

func TestTrapProvidersStayBelowThreshold(t *testing.T) {
	u, err := Generate(Options{Scale: 20000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range []Snapshot{Y2016, Y2020} {
		counts := make(map[string]int)
		for _, s := range u.List(snap) {
			ss := s.Snap[snap]
			if ss.Exists && ss.DNSTrap == TrapUnknown {
				counts[ss.DNSProviders[0]]++
			}
		}
		for p, n := range counts {
			if n >= 50 {
				t.Errorf("%s: trap provider %s serves %d sites (>= concentration threshold)", snap, p, n)
			}
		}
	}
}
