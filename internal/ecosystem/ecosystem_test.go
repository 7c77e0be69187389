package ecosystem

import (
	"context"
	"reflect"
	"testing"

	"depscope/internal/chain"
	"depscope/internal/dnsmsg"
)

const testScale = 2000

func genUniverse(t testing.TB, scale int) *Universe {
	t.Helper()
	u, err := Generate(Options{Scale: scale, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestGenerateDeterministic(t *testing.T) {
	u1 := genUniverse(t, 500)
	u2 := genUniverse(t, 500)
	if len(u1.Sites) != len(u2.Sites) {
		t.Fatalf("site counts differ: %d vs %d", len(u1.Sites), len(u2.Sites))
	}
	for i := range u1.Sites {
		if !reflect.DeepEqual(u1.Sites[i], u2.Sites[i]) {
			t.Fatalf("site %d differs:\n%+v\n%+v", i, u1.Sites[i], u2.Sites[i])
		}
	}
}

func TestGenerateRejectsBadScale(t *testing.T) {
	if _, err := Generate(Options{Scale: 0}); err == nil {
		t.Error("Generate accepted scale 0")
	}
}

func TestListsAndChurn(t *testing.T) {
	u := genUniverse(t, testScale)
	l16, l20 := u.List(Y2016), u.List(Y2020)
	if len(l16) != testScale || len(l20) != testScale {
		t.Fatalf("list lengths: %d / %d", len(l16), len(l20))
	}
	dead := 0
	for i := range l16 {
		if l16[i].Rank2016 != i+1 {
			t.Fatalf("2016 rank mismatch at %d", i)
		}
		if l16[i] != l20[i] {
			dead++
			if l16[i].Rank2020 != 0 || l20[i].Rank2016 != 0 {
				t.Fatalf("churned slot %d not disjoint", i)
			}
		}
	}
	frac := float64(dead) / float64(testScale)
	if frac < 0.02 || frac > 0.06 {
		t.Errorf("dead fraction = %.3f, want ~0.038", frac)
	}
}

// truthDNSStats aggregates ground truth over characterized sites.
func truthDNSStats(u *Universe, snap Snapshot) (third, critical, unchar, private float64) {
	var nChar, nThird, nCrit, nUnchar, nPriv, total int
	for _, s := range u.List(snap) {
		ss := s.Snap[snap]
		if !ss.Exists {
			continue
		}
		total++
		if ss.DNSTrap == TrapUnknown {
			nUnchar++
			continue
		}
		nChar++
		if ss.DNSMode.UsesThird() {
			nThird++
		}
		if ss.DNSMode.Critical() {
			nCrit++
		}
		if ss.DNSMode == DepPrivate {
			nPriv++
		}
	}
	return float64(nThird) / float64(nChar), float64(nCrit) / float64(nChar),
		float64(nUnchar) / float64(total), float64(nPriv) / float64(nChar)
}

func TestGroundTruthMatchesCalibration2020(t *testing.T) {
	u := genUniverse(t, testScale)
	third, critical, unchar, _ := truthDNSStats(u, Y2020)
	// Paper 2020 targets: 89% third-party, 85% critical (band 3 dominates),
	// 18% uncharacterized.
	if third < 0.85 || third > 0.92 {
		t.Errorf("third-party DNS = %.3f, want ~0.88", third)
	}
	if critical < 0.80 || critical > 0.88 {
		t.Errorf("critical DNS = %.3f, want ~0.84", critical)
	}
	if unchar < 0.16 || unchar > 0.20 {
		t.Errorf("uncharacterized = %.3f, want ~0.18", unchar)
	}
}

func TestGroundTruth2016LowerCritical(t *testing.T) {
	u := genUniverse(t, 5000)
	_, crit20, _, _ := truthDNSStats(u, Y2020)
	_, crit16, _, _ := truthDNSStats(u, Y2016)
	if crit16 >= crit20 {
		t.Errorf("2016 critical %.3f should be below 2020 %.3f", crit16, crit20)
	}
	if d := crit20 - crit16; d < 0.02 || d > 0.08 {
		t.Errorf("critical delta = %.3f, want ~0.045", d)
	}
}

func TestGroundTruthCDNAndCA(t *testing.T) {
	u := genUniverse(t, testScale)
	var users, https, stapled, httpsAll int
	n := 0
	for _, s := range u.List(Y2020) {
		ss := s.Snap[Y2020]
		if !ss.Exists {
			continue
		}
		n++
		if ss.CDNMode != DepNone {
			users++
		}
		if ss.HTTPS {
			httpsAll++
			if ss.Stapled {
				stapled++
			}
		}
	}
	_ = https
	if f := float64(users) / float64(n); f < 0.30 || f > 0.37 {
		t.Errorf("CDN users = %.3f, want ~0.33", f)
	}
	if f := float64(httpsAll) / float64(n); f < 0.74 || f > 0.82 {
		t.Errorf("HTTPS = %.3f, want ~0.78", f)
	}
	if f := float64(stapled) / float64(httpsAll); f < 0.17 || f > 0.28 {
		t.Errorf("stapling among HTTPS = %.3f, want ~0.22", f)
	}
}

func TestProviderUniverseCounts(t *testing.T) {
	u := genUniverse(t, 20000)
	cas20 := u.ProvidersOf(SvcCA, Y2020)
	cas16 := u.ProvidersOf(SvcCA, Y2016)
	if len(cas20) < 50 || len(cas20) > 70 {
		t.Errorf("2020 CA count = %d, want ~59", len(cas20))
	}
	if len(cas16) <= len(cas20) {
		t.Errorf("2016 CAs (%d) should outnumber 2020 CAs (%d)", len(cas16), len(cas20))
	}
	cdns20 := u.ProvidersOf(SvcCDN, Y2020)
	cdns16 := u.ProvidersOf(SvcCDN, Y2016)
	if len(cdns20) <= len(cdns16) {
		t.Errorf("2020 CDNs (%d) should outnumber 2016 CDNs (%d)", len(cdns20), len(cdns16))
	}
	// Inter-service dependency counts (Table 6 shape).
	thirdDNS, critDNS := 0, 0
	for _, p := range cdns20 {
		switch p.DNSDeps[Y2020].Mode() {
		case DepSingleThird:
			thirdDNS++
			critDNS++
		case DepMultiThird, DepPrivatePlusThird:
			thirdDNS++
		}
	}
	if thirdDNS < 20 || critDNS < 10 {
		t.Errorf("CDN->DNS third=%d critical=%d, want ~31/15", thirdDNS, critDNS)
	}
}

func TestMaterializeBasics(t *testing.T) {
	u := genUniverse(t, 300)
	w := Materialize(u, Y2020)
	if len(w.Sites) != 300 {
		t.Fatalf("world sites = %d", len(w.Sites))
	}
	r := w.NewResolver()
	ctx := context.Background()
	checked := 0
	for _, s := range u.List(Y2020) {
		ss := s.Snap[Y2020]
		if !ss.Exists {
			continue
		}
		ns, err := r.NS(ctx, s.Domain)
		if err != nil {
			t.Fatalf("NS(%s): %v", s.Domain, err)
		}
		if len(ns) == 0 {
			t.Fatalf("site %s (mode %v) has no NS records", s.Domain, ss.DNSMode)
		}
		if _, ok, err := r.SOA(ctx, s.Domain); err != nil || !ok {
			t.Fatalf("SOA(%s): ok=%v err=%v", s.Domain, ok, err)
		}
		// Every nameserver's SOA must be resolvable too (pipeline needs it).
		for _, h := range ns {
			if _, ok, err := r.SOA(ctx, h); err != nil || !ok {
				t.Fatalf("SOA of ns %s of %s: ok=%v err=%v", h, s.Domain, ok, err)
			}
		}
		if page := w.Page(s.Domain); page == nil || len(page.Hosts()) == 0 {
			t.Fatalf("site %s has no page", s.Domain)
		}
		if ss.HTTPS {
			c := w.Certs.Get(s.Domain)
			if c == nil {
				t.Fatalf("HTTPS site %s has no certificate", s.Domain)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("certificate of %s: %v", s.Domain, err)
			}
			if len(c.RevocationHosts()) == 0 {
				t.Fatalf("certificate of %s has no revocation endpoints", s.Domain)
			}
		}
		checked++
	}
	if checked != 300 {
		t.Fatalf("checked %d sites", checked)
	}
}

func TestMaterializeCDNWiring(t *testing.T) {
	u := genUniverse(t, 1000)
	w := Materialize(u, Y2020)
	r := w.NewResolver()
	ctx := context.Background()
	verified := 0
	for _, s := range u.List(Y2020) {
		ss := s.Snap[Y2020]
		if !ss.Exists || ss.CDNMode == DepNone || ss.PrivateCDN {
			continue
		}
		page := w.Page(s.Domain)
		foundCDN := map[string]bool{}
		for _, host := range page.Hosts() {
			chain, err := r.CNAMEChain(ctx, host)
			if err != nil {
				continue
			}
			for _, name := range chain {
				for suffix, cdn := range w.CNAMEToCDN {
					if name == suffix+"." || hasSuffixDot(name, suffix) {
						foundCDN[cdn] = true
					}
				}
			}
		}
		for _, want := range ss.CDNProviders {
			if !foundCDN[want] {
				t.Fatalf("site %s: CDN %s not discoverable (found %v)", s.Domain, want, foundCDN)
			}
		}
		verified++
		if verified > 50 {
			break
		}
	}
	if verified == 0 {
		t.Fatal("no CDN sites verified")
	}
}

func hasSuffixDot(name, suffix string) bool {
	full := "." + suffix + "."
	if len(name) < len(full) {
		return false
	}
	return name[len(name)-len(full):] == full
}

func TestSOATrapWiring(t *testing.T) {
	u := genUniverse(t, 1000)
	w := Materialize(u, Y2020)
	r := w.NewResolver()
	ctx := context.Background()
	found := false
	for _, s := range u.List(Y2020) {
		ss := s.Snap[Y2020]
		if !ss.Exists || ss.DNSTrap != TrapSOAEqual {
			continue
		}
		siteSOA, ok, err := r.SOA(ctx, s.Domain)
		if err != nil || !ok {
			t.Fatal(err)
		}
		ns, _ := r.NS(ctx, s.Domain)
		nsSOA, ok, err := r.SOA(ctx, ns[0])
		if err != nil || !ok {
			t.Fatal(err)
		}
		if dnsmsg.CanonicalName(siteSOA.MName) != dnsmsg.CanonicalName(nsSOA.MName) {
			t.Fatalf("SOA-equal trap site %s: MNames differ (%s vs %s)", s.Domain, siteSOA.MName, nsSOA.MName)
		}
		found = true
		break
	}
	if !found {
		t.Fatal("no SOA-equal trap site found")
	}
}

func TestDepModeHelpers(t *testing.T) {
	if !DepSingleThird.Critical() || DepMultiThird.Critical() {
		t.Error("Critical() wrong")
	}
	if !DepMultiThird.UsesThird() || DepPrivate.UsesThird() {
		t.Error("UsesThird() wrong")
	}
	if DepPrivatePlusThird.String() != "private+third" {
		t.Error("String() wrong")
	}
}

func BenchmarkGenerate10K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate(Options{Scale: 10000, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaterialize5K(b *testing.B) {
	u, err := Generate(Options{Scale: 5000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Materialize(u, Y2020)
	}
}

// BenchmarkMaterializePages times the page layer alone: one batch of every
// 10K-scale Y2020 landing page with chain growth, zones already in place.
// Pages are released between iterations outside the timer.
func BenchmarkMaterializePages(b *testing.B) {
	u, err := Generate(Options{Scale: 10000, Seed: 2020})
	if err != nil {
		b.Fatal(err)
	}
	c := NewChunked(u, Y2020)
	c.EnableChains(chain.Default())
	n := c.Len()
	c.AddSites(0, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MaterializePages(0, n)
		b.StopTimer()
		c.ReleasePages(0, n)
		b.StartTimer()
	}
}

func TestMaterializeDeterministic(t *testing.T) {
	u1 := genUniverse(t, 400)
	u2 := genUniverse(t, 400)
	w1 := Materialize(u1, Y2020)
	w2 := Materialize(u2, Y2020)
	if !reflect.DeepEqual(w1.Sites, w2.Sites) {
		t.Fatal("site lists differ")
	}
	if !reflect.DeepEqual(w1.CNAMEToCDN, w2.CNAMEToCDN) {
		t.Fatal("CDN maps differ")
	}
	// Spot-check a few zones record-for-record.
	for _, origin := range []string{w1.Sites[0] + ".", "cloudflare.com.", "digicert.com."} {
		z1, z2 := w1.Zones.Zone(origin), w2.Zones.Zone(origin)
		if z1 == nil || z2 == nil {
			t.Fatalf("zone %s missing", origin)
		}
		if !reflect.DeepEqual(z1.AllRecords(), z2.AllRecords()) {
			t.Fatalf("zone %s differs between materializations", origin)
		}
	}
}
