package analysis

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"depscope/internal/core"
)

const testScale = 10000

var (
	runOnce sync.Once
	testRun *Run
	runErr  error
)

func getRun(t testing.TB) *Run {
	t.Helper()
	runOnce.Do(func() {
		testRun, runErr = Execute(context.Background(), Options{Scale: testScale, Seed: 2020})
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return testRun
}

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if got < want-tol || got > want+tol {
		t.Errorf("%s = %.3f, want %.3f ± %.3f", name, got, want, tol)
	}
}

// TestObservation1 checks Fig 2's headline numbers: 89% third-party DNS and
// 85% critical in the full list vs 49%/28% in the top band.
func TestObservation1(t *testing.T) {
	f := Figure2(getRun(t))
	within(t, "third-party (full list)", f[3].ThirdParty(), 0.89, 0.03)
	within(t, "critical (full list)", f[3].Critical(), 0.85, 0.03)
	within(t, "third-party (top band)", f[0].ThirdParty(), 0.49, 0.20)
	within(t, "critical (top band)", f[0].Critical(), 0.28, 0.20)
	if f[0].Critical() >= f[3].Critical() {
		t.Error("critical dependency should increase down the ranks")
	}
}

// TestObservation2 checks Table 3: critical DNS dependency rose by ~4.7pp.
func TestObservation2(t *testing.T) {
	rows := Table3(getRun(t))
	within(t, "critical delta k=full", rows[3].CriticalDelta, 4.7, 1.5)
	within(t, "pvt->single k=full", rows[3].PvtToSingle, 10.7, 1.5)
	within(t, "single->pvt k=full", rows[3].SingleToPvt, 6.0, 1.5)
}

// TestObservation3 checks Fig 3: ~33% of sites use CDNs; 97.6% of users use
// a third-party CDN; 85% of users critically depend on it.
func TestObservation3(t *testing.T) {
	run := getRun(t)
	f := Figure3(run)
	usage := float64(f[3].Total+f[3].Unknown) / float64(len(run.Y2020.Results.Sites))
	within(t, "CDN usage", usage, 0.33, 0.03)
	within(t, "third-party among users", f[3].ThirdParty(), 0.976, 0.02)
	within(t, "critical among users", f[3].Critical(), 0.85, 0.03)
	if f[0].Critical() >= f[3].Critical() {
		t.Error("popular sites should be less critically dependent on CDNs")
	}
}

// TestObservation4 checks Table 4: no significant CDN criticality change at
// full scale, decreasing for popular sites.
func TestObservation4(t *testing.T) {
	rows := Table4(getRun(t))
	within(t, "CDN critical delta full", rows[3].CriticalDelta, 0.0, 2.0)
	if rows[1].CriticalDelta >= rows[3].CriticalDelta+1 {
		t.Errorf("popular-band delta %.1f should be below full-list %.1f",
			rows[1].CriticalDelta, rows[3].CriticalDelta)
	}
}

// TestObservation5 checks Fig 4: 78% HTTPS, 77% third-party CA, ~22%
// stapling among HTTPS sites.
func TestObservation5(t *testing.T) {
	f := Figure4(getRun(t))
	within(t, "HTTPS full", f[3].HTTPSFrac, 0.78, 0.02)
	within(t, "third CA full", f[3].ThirdCAFrac, 0.77, 0.02)
	within(t, "stapling full", f[3].StaplingFrac, 0.22, 0.03)
	if f[0].HTTPSFrac <= f[3].HTTPSFrac {
		t.Error("HTTPS should be higher among popular sites")
	}
	if f[0].ThirdCAFrac >= f[3].ThirdCAFrac {
		t.Error("third-party CA use should be lower among popular sites")
	}
}

// TestObservation7 checks Fig 5: the top providers and their headline
// concentration/impact values.
func TestObservation7(t *testing.T) {
	run := getRun(t)

	dns := Figure5(run, core.DNS, 3)
	if dns[0].Name != "cloudflare.com" {
		t.Fatalf("top DNS provider = %q, want cloudflare.com", dns[0].Name)
	}
	within(t, "Cloudflare C", dns[0].Concentration, 0.24, 0.02)
	within(t, "Cloudflare I", dns[0].Impact, 0.23, 0.02)
	top3 := dns[0].Impact + dns[1].Impact + dns[2].Impact
	within(t, "top-3 DNS impact", top3, 0.40, 0.04)

	cdn := Figure5(run, core.CDN, 3)
	if cdn[0].Name != "Amazon CloudFront" {
		t.Fatalf("top CDN = %q", cdn[0].Name)
	}
	within(t, "CloudFront share of CDN users", cdn[0].Concentration, 0.32, 0.04)

	ca := Figure5(run, core.CA, 3)
	if ca[0].Name != "digicert.com" {
		t.Fatalf("top CA = %q", ca[0].Name)
	}
	within(t, "DigiCert share of HTTPS sites", ca[0].Concentration, 0.32, 0.03)
	if ca[1].Name != "letsencrypt.org" || ca[2].Name != "sectigo.com" {
		t.Errorf("top-3 CAs = %v", []string{ca[0].Name, ca[1].Name, ca[2].Name})
	}
}

// TestObservation8 checks Fig 6: DNS and CA concentration increased between
// snapshots (fewer providers cover 80%), CDN concentration decreased.
func TestObservation8(t *testing.T) {
	run := getRun(t)
	dns := Figure6(run, core.DNS)
	if dns[0].ProvidersFor80 <= dns[1].ProvidersFor80 {
		t.Errorf("DNS: 2016 needed %d providers for 80%%, 2020 %d; want 2016 > 2020",
			dns[0].ProvidersFor80, dns[1].ProvidersFor80)
	}
	ca := Figure6(run, core.CA)
	if ca[0].ProvidersFor80 <= ca[1].ProvidersFor80 {
		t.Errorf("CA: 2016 %d vs 2020 %d; want 2016 > 2020", ca[0].ProvidersFor80, ca[1].ProvidersFor80)
	}
	cdn := Figure6(run, core.CDN)
	if cdn[0].ProvidersFor80 >= cdn[1].ProvidersFor80 {
		t.Errorf("CDN: 2016 %d vs 2020 %d; want 2016 < 2020", cdn[0].ProvidersFor80, cdn[1].ProvidersFor80)
	}
	// Distinct provider counts follow Table 6's universe sizes.
	if cdn[1].Distinct < 70 || cdn[1].Distinct > 95 {
		t.Errorf("2020 distinct CDNs = %d, want ~86", cdn[1].Distinct)
	}
	if ca[1].Distinct < 50 || ca[1].Distinct > 65 {
		t.Errorf("2020 distinct CAs = %d, want ~59", ca[1].Distinct)
	}
}

// TestTable6 checks the inter-service dependency counts.
func TestTable6(t *testing.T) {
	rows := Table6(getRun(t))
	cdnDNS, caDNS, caCDN := rows[0], rows[1], rows[2]
	if cdnDNS.Third < 25 || cdnDNS.Third > 36 || cdnDNS.Critical < 12 || cdnDNS.Critical > 18 {
		t.Errorf("CDN->DNS = %+v, want ~31 third / ~15 critical", cdnDNS)
	}
	if caDNS.Third < 24 || caDNS.Third > 30 || caDNS.Critical < 16 || caDNS.Critical > 20 {
		t.Errorf("CA->DNS = %+v, want ~27 third / ~18 critical", caDNS)
	}
	if caCDN.Third < 19 || caCDN.Third > 24 || caCDN.Critical != caCDN.Third {
		t.Errorf("CA->CDN = %+v, want ~21 third, all critical", caCDN)
	}
}

// TestObservation9 checks Fig 7: CA→DNS indirection amplifies DNSMadeEasy
// from ~1% impact to ~25%, and the top-3 DNS impact from 40% toward 72%.
func TestObservation9(t *testing.T) {
	run := getRun(t)
	rows := Figure7(run, 5)
	var dme *AmplificationRow
	for i := range rows {
		if rows[i].Name == "dnsmadeeasy.com" {
			dme = &rows[i]
		}
	}
	if dme == nil {
		t.Fatalf("DNSMadeEasy missing from Fig 7 top-5: %+v", rows)
	}
	if dme.DirectImpact > 0.03 {
		t.Errorf("DNSMadeEasy direct impact %.3f, want ~0.01", dme.DirectImpact)
	}
	within(t, "DNSMadeEasy indirect impact", dme.IndirectImpact, 0.25, 0.05)
	if amp := dme.IndirectImpact / dme.DirectImpact; amp < 10 {
		t.Errorf("DNSMadeEasy amplification %.1fx, want >10x (paper: 25x)", amp)
	}

	direct3 := TopKImpactShare(run, core.DNS, core.DirectOnly(), 3)
	indirect3 := TopKImpactShare(run, core.DNS, core.TraversalOpts{ViaProviders: []core.Service{core.CA}}, 3)
	within(t, "top-3 direct impact", direct3, 0.40, 0.04)
	if indirect3 < direct3+0.15 {
		t.Errorf("top-3 with CA->DNS = %.3f, want well above direct %.3f (paper: 72%% vs 40%%)",
			indirect3, direct3)
	}
}

// TestObservation10 checks Fig 8: Incapsula is amplified from ~1% to ~27%
// of all sites by serving DigiCert.
func TestObservation10(t *testing.T) {
	rows := Figure8(getRun(t), 5)
	var inc *AmplificationRow
	for i := range rows {
		if rows[i].Name == "Incapsula" {
			inc = &rows[i]
		}
	}
	if inc == nil {
		t.Fatalf("Incapsula missing from Fig 8 top-5: %+v", rows)
	}
	if inc.DirectConcentration > 0.03 {
		t.Errorf("Incapsula direct C %.3f, want ~0.01", inc.DirectConcentration)
	}
	within(t, "Incapsula indirect C", inc.IndirectConcentration, 0.26, 0.05)
}

// TestObservation11 checks Fig 9: the major DNS providers barely move under
// CDN→DNS indirection because the big CDNs run private DNS.
func TestObservation11(t *testing.T) {
	rows := Figure9(getRun(t), 5)
	for _, r := range rows {
		if r.Name == "cloudflare.com" || r.Name == "domaincontrol.com" {
			if d := r.IndirectImpact - r.DirectImpact; d > 0.03 {
				t.Errorf("%s impact moved %.3f under CDN->DNS; expected little change", r.Name, d)
			}
		}
	}
}

// TestHiddenDependencies checks the §5 "additional websites" counts (scaled
// from per-100K: 290 / 32 / 3).
func TestHiddenDependencies(t *testing.T) {
	h := HiddenDependencies(getRun(t))
	scale := float64(testScale) / 100000
	if f := float64(h.PrivateCDNThirdDNS); f < 150*scale || f > 450*scale {
		t.Errorf("private-CDN-third-DNS sites = %d, want ~%.0f", h.PrivateCDNThirdDNS, 290*scale)
	}
	if h.PrivateCAThirdCDN < 1 || h.PrivateCAThirdCDN > 10 {
		t.Errorf("private-CA-third-CDN sites = %d, want ~3 at 10K", h.PrivateCAThirdCDN)
	}
}

// TestCriticalDepsAmplification checks §8.1: indirection raises the share
// of sites with >=3 critical dependencies well above the direct ~9.6%.
func TestCriticalDepsAmplification(t *testing.T) {
	h := CriticalDeps(getRun(t), 3)
	within(t, "direct >=3", h.DirectAtLeast[3], 0.096, 0.04)
	if h.IndirectAtLeast[3] < h.DirectAtLeast[3]*2 {
		t.Errorf("indirect >=3 = %.3f, want well above direct %.3f (paper: 25%% vs 9.6%%)",
			h.IndirectAtLeast[3], h.DirectAtLeast[3])
	}
}

// TestTables1And2 sanity-checks dataset sizes against Table 1/2 ratios.
func TestTables1And2(t *testing.T) {
	run := getRun(t)
	t1 := Table1(run)
	n := float64(testScale)
	within(t, "characterized DNS", float64(t1.CharacterizedDNS)/n, 0.82, 0.02)
	within(t, "CDN users", float64(t1.UsingCDN)/n, 0.33, 0.03)
	within(t, "HTTPS", float64(t1.SupportingHTTPS)/n, 0.78, 0.02)

	t2 := Table2(run)
	within(t, "dead fraction", t2.DeadFraction, 0.038, 0.01)
	if t2.UsingCDNEither <= t1.UsingCDN*8/10 {
		t.Errorf("either-year CDN users %d suspiciously low", t2.UsingCDNEither)
	}
}

// TestReportRenders smoke-tests the full text report.
func TestReportRenders(t *testing.T) {
	var sb strings.Builder
	Report(&sb, getRun(t))
	out := sb.String()
	for _, want := range []string{
		"Table 1", "Table 9", "Figure 2", "Figure 9",
		"cloudflare.com", "digicert.com", "Amazon CloudFront",
		"Hidden dependencies", "Critical dependencies per website",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(out) < 4000 {
		t.Errorf("report suspiciously short: %d bytes", len(out))
	}
}

// TestExecuteValidation checks option validation.
func TestExecuteValidation(t *testing.T) {
	if _, err := Execute(context.Background(), Options{}); err == nil {
		t.Error("Execute accepted zero scale")
	}
}

// ---- extensions: outage, robustness, DOT, JSON ----

func TestOutageReport(t *testing.T) {
	run := getRun(t)
	rep := Outage(run, "dnsmadeeasy.com")
	if rep.Transitive <= rep.Direct {
		t.Errorf("outage: transitive %d should exceed direct %d", rep.Transitive, rep.Direct)
	}
	found := false
	for _, p := range rep.AffectedProviders {
		if p == "digicert.com" {
			found = true
		}
	}
	if !found {
		t.Errorf("DigiCert missing from affected providers: %v", rep.AffectedProviders)
	}
	if len(rep.SampleSites) == 0 {
		t.Error("no sample sites")
	}
	var sb strings.Builder
	if err := RenderOutage(&sb, run, "dnsmadeeasy.com"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "digicert.com") {
		t.Errorf("outage render missing provider chain:\n%s", sb.String())
	}
}

// TestOutageUnknownProvider: a provider the snapshot does not know is an
// error naming it, with nothing rendered — not a report of zeros.
func TestOutageUnknownProvider(t *testing.T) {
	run := getRun(t)
	var sb strings.Builder
	err := RenderOutage(&sb, run, "no-such-provider.example")
	if err == nil || !strings.Contains(err.Error(), `"no-such-provider.example"`) {
		t.Errorf("RenderOutage(unknown) error = %v, want one naming the provider", err)
	}
	if sb.Len() != 0 {
		t.Errorf("RenderOutage(unknown) wrote output:\n%s", sb.String())
	}
}

func TestRobustnessRender(t *testing.T) {
	run := getRun(t)
	var sb strings.Builder
	RenderRobustness(&sb, run)
	out := sb.String()
	if !strings.Contains(out, "score 0") || !strings.Contains(out, "critical providers") {
		t.Errorf("robustness render incomplete:\n%s", out)
	}
	d := run.Y2020.Graph.RobustnessAll()
	if d.Zero == 0 || d.Full == 0 {
		t.Errorf("robustness distribution degenerate: %+v", d)
	}
}

func TestWriteDOTFromRun(t *testing.T) {
	run := getRun(t)
	var sb strings.Builder
	if err := WriteDOT(&sb, run, 20); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "digraph dependencies") || !strings.Contains(out, "cloudflare.com") {
		t.Error("DOT output incomplete")
	}
}

func TestWriteJSON(t *testing.T) {
	run := getRun(t)
	var sb strings.Builder
	if err := WriteJSON(&sb, run); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, key := range []string{"table1", "figure2_dns", "figure5_top_providers", "hidden_dependencies"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("JSON missing %q", key)
		}
	}
}

func TestValidationExperiment(t *testing.T) {
	run := getRun(t)
	rep, err := Validate(context.Background(), run)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs == 0 {
		t.Fatal("no pairs scored")
	}
	if rep.CombinedAccuracy < 0.999 {
		t.Errorf("combined accuracy = %.4f", rep.CombinedAccuracy)
	}
	if rep.TLDAccuracy >= rep.CombinedAccuracy {
		t.Errorf("TLD accuracy %.4f should be below combined %.4f", rep.TLDAccuracy, rep.CombinedAccuracy)
	}
	if rep.SOAAccuracy > 0.8 {
		t.Errorf("SOA accuracy %.4f should be poor", rep.SOAAccuracy)
	}
	// Pair accounting: ~13.5% uncharacterized in the paper; our trap design
	// lands in the same regime.
	if f := rep.PairStats.UncharacterizedFrac(); f < 0.08 || f > 0.25 {
		t.Errorf("uncharacterized pair fraction = %.3f", f)
	}
	var sb strings.Builder
	if err := RenderValidation(&sb, run); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "combined heuristic") {
		t.Error("validation render incomplete")
	}
}

func TestCSVEmitters(t *testing.T) {
	run := getRun(t)
	for _, fig := range []string{"figure2", "figure3", "figure4", "figure6-dns", "figure6-cdn", "figure6-ca", "figure7", "figure8", "figure9"} {
		var sb strings.Builder
		if err := WriteFigureCSV(&sb, run, fig); err != nil {
			t.Fatalf("%s: %v", fig, err)
		}
		lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
		if len(lines) < 2 {
			t.Errorf("%s: only %d lines", fig, len(lines))
		}
		header := lines[0]
		if !strings.Contains(header, ",") {
			t.Errorf("%s: bad header %q", fig, header)
		}
	}
	if err := WriteFigureCSV(&strings.Builder{}, run, "figure99"); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestHeuristicAblation(t *testing.T) {
	run := getRun(t)
	rows, err := HeuristicAblation(context.Background(), run)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	full := rows[0]
	if full.Accuracy < 0.99 {
		t.Errorf("full heuristic accuracy = %.3f", full.Accuracy)
	}
	for _, r := range rows[1:] {
		if r.Accuracy > full.Accuracy+1e-9 {
			t.Errorf("%s accuracy %.4f exceeds full %.4f", r.Variant, r.Accuracy, full.Accuracy)
		}
	}
	// Dropping the concentration rule must grow the unmeasurable mass: the
	// SOA-points-at-provider sites lose their only classifying rule.
	var noConc AblationRow
	for _, r := range rows {
		if r.Variant == "without concentration rule" {
			noConc = r
		}
	}
	if noConc.CharacterizedFrac >= full.CharacterizedFrac-0.05 {
		t.Errorf("without concentration: characterized %.3f vs full %.3f, expected a large drop",
			noConc.CharacterizedFrac, full.CharacterizedFrac)
	}
}

func TestThresholdSweep(t *testing.T) {
	run := getRun(t)
	rows, err := ThresholdSweep(context.Background(), run, []int{5, 50, 100000})
	if err != nil {
		t.Fatal(err)
	}
	// A tiny threshold classifies even the trap providers (everything looks
	// third-party); an absurd threshold disables the rule entirely.
	if rows[0].CharacterizedFrac <= rows[1].CharacterizedFrac {
		t.Errorf("threshold 5 should characterize more than 50: %.3f vs %.3f",
			rows[0].CharacterizedFrac, rows[1].CharacterizedFrac)
	}
	if rows[2].CharacterizedFrac >= rows[1].CharacterizedFrac {
		t.Errorf("threshold 100000 should characterize less than 50: %.3f vs %.3f",
			rows[2].CharacterizedFrac, rows[1].CharacterizedFrac)
	}
	var sb strings.Builder
	if err := RenderAblation(&sb, run); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "without SAN rule") {
		t.Error("ablation render incomplete")
	}
}

func TestFigure5Band(t *testing.T) {
	run := getRun(t)
	// The paper: Dyn is the most popular provider in the top-100 band
	// (used by ~17%, critical for only ~2%); Akamai leads the top-100 CDN
	// market even though CloudFront leads overall.
	dnsTop := Figure5Band(run, core.DNS, 0, 5)
	foundDyn := false
	for _, r := range dnsTop {
		if r.Name == "dynect.net" {
			foundDyn = true
			if r.Impact > r.Concentration/2 {
				t.Errorf("Dyn in top band should be mostly redundant: C=%.2f I=%.2f", r.Concentration, r.Impact)
			}
		}
	}
	if !foundDyn {
		t.Errorf("Dyn missing from top-band DNS providers: %+v", dnsTop)
	}
	cdnTop := Figure5Band(run, core.CDN, 0, 3)
	if len(cdnTop) == 0 || cdnTop[0].Name != "Akamai" {
		t.Errorf("top-band CDN leader = %+v, want Akamai", cdnTop)
	}
	full := Figure5Band(run, core.CDN, 3, 1)
	if len(full) == 0 || full[0].Name != "Amazon CloudFront" {
		t.Errorf("full-list CDN leader = %+v, want CloudFront", full)
	}
}
