package analysis

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"depscope/internal/core"
	"depscope/internal/telemetry"
)

// reportSteps lists every table and figure of the evaluation in paper
// order. Report walks it, timing each step into a per-figure histogram
// (analysis_<name>_seconds) so a slow aggregation is attributable.
var reportSteps = []struct {
	name   string
	render func(io.Writer, *Run)
}{
	{"table1", RenderTable1},
	{"table2", RenderTable2},
	{"figure2", RenderFigure2},
	{"table3", RenderTable3},
	{"figure3", RenderFigure3},
	{"table4", RenderTable4},
	{"figure4", RenderFigure4},
	{"table5", RenderTable5},
	{"figure5", RenderFigure5},
	{"figure5_bands", RenderFigure5Bands},
	{"figure6", RenderFigure6},
	{"table6", RenderTable6},
	{"figure7", RenderFigure7},
	{"table7", RenderTable7},
	{"figure8", RenderFigure8},
	{"table8", RenderTable8},
	{"figure9", RenderFigure9},
	{"table9", RenderTable9},
	{"hidden_deps", RenderHiddenDeps},
	{"critical_deps", RenderCriticalDeps},
	{"dyn_replay", RenderDynReplay},
	{"mitigation", RenderMitigation},
	{"chains", RenderChains},
}

// Report writes every table and figure of the evaluation to w, in paper
// order. It is the backend of cmd/depscope.
func Report(w io.Writer, run *Run) {
	defer telemetry.StartSpan("analysis.report").End()
	for _, step := range reportSteps {
		sp := telemetry.StartSpan("analysis." + step.name)
		step.render(w, run)
		sp.End()
	}
}

func pct(f float64) string { return fmt.Sprintf("%5.1f%%", 100*f) }

// RenderErrorSummary prints the per-snapshot pipeline diagnostics: per-stage
// progress and error counters, the resolver cache hit-rate, and (under
// conc.Collect) a sample of the recorded per-site errors. It is the
// error-summary footer of cmd/depscope.
func RenderErrorSummary(w io.Writer, run *Run) {
	header(w, "Pipeline diagnostics")
	for _, sd := range []*SnapshotData{run.Y2016, run.Y2020} {
		if sd == nil {
			continue
		}
		d := sd.Results.Diagnostics
		fmt.Fprintf(w, "%s: resolver %d lookups, %.1f%% cache hits\n",
			sd.Snapshot, d.Resolver.Queries, 100*d.Resolver.HitRate())
		for _, st := range d.Stages {
			fmt.Fprintf(w, "  %-13s %7d processed  %6d errors\n", st.Stage, st.Sites, st.Errors)
		}
		const sample = 5
		for i, e := range d.Errors {
			if i == sample {
				fmt.Fprintf(w, "  ... and %d more recorded errors\n",
					len(d.Errors)-sample+d.ErrorsTruncated)
				break
			}
			fmt.Fprintf(w, "  %s [%s]: %s\n", e.Site, e.Stage, e.Err)
		}
	}
}

// header writes title underlined with one dash per rune, in one write.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("-", utf8.RuneCountInString(title)))
}

// RenderTable1 prints the 2020 dataset summary.
func RenderTable1(w io.Writer, run *Run) {
	t := Table1(run)
	header(w, t.Title)
	fmt.Fprintf(w, "Characterized websites for DNS analysis  %d\n", t.CharacterizedDNS)
	fmt.Fprintf(w, "Websites using CDNs                       %d\n", t.UsingCDN)
	fmt.Fprintf(w, "Characterized websites for CDN analysis   %d\n", t.CharacterizedCDN)
	fmt.Fprintf(w, "Websites supporting HTTPS                 %d\n", t.SupportingHTTPS)
	fmt.Fprintf(w, "Characterized websites for CA analysis    %d\n", t.CharacterizedHTTPS)
}

// RenderTable2 prints the comparison dataset summary.
func RenderTable2(w io.Writer, run *Run) {
	t := Table2(run)
	header(w, "Table 2: 2016-vs-2020 comparison dataset")
	fmt.Fprintf(w, "Characterized websites for DNS analysis   %d\n", t.CharacterizedDNS)
	fmt.Fprintf(w, "Websites using CDN either in 2016 or 2020 %d\n", t.UsingCDNEither)
	fmt.Fprintf(w, "Characterized websites for CDN analysis   %d\n", t.CharacterizedCDN)
	fmt.Fprintf(w, "Websites HTTPS either in 2016 or 2020     %d\n", t.HTTPSEither)
	fmt.Fprintf(w, "2016-list websites gone by 2020           %.1f%%\n", 100*t.DeadFraction)
}

func renderBands(w io.Writer, bands [4]core.BandStats) {
	fmt.Fprintf(w, "%-8s %10s %10s %12s %14s\n", "band", "third", "critical", "multi-third", "private+third")
	for _, b := range bands {
		fmt.Fprintf(w, "%-8s %10s %10s %12s %14s\n",
			b.Label, pct(b.ThirdParty()), pct(b.Critical()), pct(b.MultiThird()), pct(b.MixedFrac()))
	}
}

// RenderFigure2 prints the DNS dependency series.
func RenderFigure2(w io.Writer, run *Run) {
	header(w, "Figure 2: website->DNS dependency by rank (2020, of characterized sites)")
	renderBands(w, Figure2(run))
}

// RenderFigure3 prints the CDN dependency series.
func RenderFigure3(w io.Writer, run *Run) {
	header(w, "Figure 3: website->CDN dependency by rank (2020, of CDN-using sites)")
	renderBands(w, Figure3(run))
}

// RenderFigure4 prints the CA series.
func RenderFigure4(w io.Writer, run *Run) {
	header(w, "Figure 4: HTTPS, third-party CA and OCSP stapling by rank (2020)")
	fmt.Fprintf(w, "%-8s %10s %12s %12s\n", "band", "https", "third CA", "stapling")
	for _, r := range Figure4(run) {
		fmt.Fprintf(w, "%-8s %10s %12s %12s\n", r.Label, pct(r.HTTPSFrac), pct(r.ThirdCAFrac), pct(r.StaplingFrac))
	}
}

func renderTrends(w io.Writer, rows [4]core.TrendRow) {
	fmt.Fprintf(w, "%-28s", "Website Trends")
	for _, r := range rows {
		fmt.Fprintf(w, " %8s", r.Label)
	}
	fmt.Fprintln(w)
	line := func(name string, get func(core.TrendRow) float64) {
		fmt.Fprintf(w, "%-28s", name)
		for _, r := range rows {
			fmt.Fprintf(w, " %8.1f", get(r))
		}
		fmt.Fprintln(w)
	}
	line("Pvt to Single 3rd", func(r core.TrendRow) float64 { return r.PvtToSingle })
	line("Single Third to Pvt", func(r core.TrendRow) float64 { return r.SingleToPvt })
	line("Red. to No Red.", func(r core.TrendRow) float64 { return r.RedToNoRed })
	line("No Red. to Red.", func(r core.TrendRow) float64 { return r.NoRedToRed })
	line("Critical dependency delta", func(r core.TrendRow) float64 { return r.CriticalDelta })
}

// RenderTable3 prints DNS trends.
func RenderTable3(w io.Writer, run *Run) {
	header(w, "Table 3: website->DNS trends 2016 vs 2020 (percent of comparison sites)")
	renderTrends(w, Table3(run))
}

// RenderTable4 prints CDN trends.
func RenderTable4(w io.Writer, run *Run) {
	header(w, "Table 4: website->CDN trends 2016 vs 2020 (percent of comparison sites)")
	renderTrends(w, Table4(run))
}

// RenderTable5 prints stapling trends.
func RenderTable5(w io.Writer, run *Run) {
	header(w, "Table 5: website->CA stapling trends 2016 vs 2020 (percent of HTTPS-in-both sites)")
	rows := Table5(run)
	fmt.Fprintf(w, "%-28s", "Website Trends")
	for _, r := range rows {
		fmt.Fprintf(w, " %8s", r.Label)
	}
	fmt.Fprintln(w)
	line := func(name string, get func(core.StaplingTrendRow) float64) {
		fmt.Fprintf(w, "%-28s", name)
		for _, r := range rows {
			fmt.Fprintf(w, " %8.1f", get(r))
		}
		fmt.Fprintln(w)
	}
	line("Stapling to No Stapling", func(r core.StaplingTrendRow) float64 { return r.StapleToNo })
	line("No Stapling to Stapling", func(r core.StaplingTrendRow) float64 { return r.NoToStaple })
	line("Critical dependency delta", func(r core.StaplingTrendRow) float64 { return r.CriticalDelta })
}

// RenderFigure5 prints the top-5 providers of each service with C and I.
func RenderFigure5(w io.Writer, run *Run) {
	for _, svc := range []core.Service{core.DNS, core.CDN, core.CA} {
		header(w, fmt.Sprintf("Figure 5 (%s): top providers by direct concentration (2020)", svc))
		fmt.Fprintf(w, "%-28s %16s %10s\n", "provider", "concentration", "impact")
		for _, r := range Figure5(run, svc, 5) {
			fmt.Fprintf(w, "%-28s %16s %10s\n", r.Name, pct(r.Concentration), pct(r.Impact))
		}
	}
}

// RenderFigure5Bands prints the rank-dependent provider tables the paper
// discusses in §4.2 (Dyn in the top-100, Akamai's top-100 CDN dominance).
func RenderFigure5Bands(w io.Writer, run *Run) {
	for _, svc := range []core.Service{core.DNS, core.CDN, core.CA} {
		header(w, fmt.Sprintf("Figure 5 (%s) by rank band: top providers per band (2020)", svc))
		for band := 0; band < 4; band++ {
			rows := Figure5Band(run, svc, band, 3)
			fmt.Fprintf(w, "band %d:", band)
			for _, r := range rows {
				fmt.Fprintf(w, "  %s %s/%s", r.Name, pct(r.Concentration), pct(r.Impact))
			}
			fmt.Fprintln(w)
		}
	}
}

// RenderFigure6 prints the provider-concentration CDF summaries.
func RenderFigure6(w io.Writer, run *Run) {
	for _, svc := range []core.Service{core.DNS, core.CDN, core.CA} {
		series := Figure6(run, svc)
		header(w, fmt.Sprintf("Figure 6 (%s): provider concentration CDF", svc))
		for _, s := range series {
			fmt.Fprintf(w, "%s: %d distinct providers; top %d cover 80%% of third-party-using sites\n",
				s.Year, s.Distinct, s.ProvidersFor80)
		}
	}
}

// RenderTable6 prints inter-service dependency counts.
func RenderTable6(w io.Writer, run *Run) {
	header(w, "Table 6: inter-service dependencies (2020)")
	fmt.Fprintf(w, "%-10s %8s %12s %12s\n", "dependency", "total", "third-party", "critical")
	for _, r := range Table6(run) {
		fmt.Fprintf(w, "%-10s %8d %5d (%4.1f%%) %5d (%4.1f%%)\n",
			r.Name, r.Total,
			r.Third, 100*frac(r.Third, r.Total),
			r.Critical, 100*frac(r.Critical, r.Total))
	}
}

func renderAmplification(w io.Writer, rows []AmplificationRow) {
	fmt.Fprintf(w, "%-28s %12s %12s %12s %12s\n", "provider", "C direct", "C indirect", "I direct", "I indirect")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %12s %12s %12s %12s\n", r.Name,
			pct(r.DirectConcentration), pct(r.IndirectConcentration),
			pct(r.DirectImpact), pct(r.IndirectImpact))
	}
}

// RenderFigure7 prints the CA→DNS amplification.
func RenderFigure7(w io.Writer, run *Run) {
	header(w, "Figure 7: top DNS providers with vs without CA->DNS indirection (2020)")
	renderAmplification(w, Figure7(run, 5))
	fmt.Fprintf(w, "top-3 impact: direct %s, with CA->DNS %s (Obs 9: 40%% vs 72%%)\n",
		pct(TopKImpactShare(run, core.DNS, core.DirectOnly(), 3)),
		pct(TopKImpactShare(run, core.DNS, core.TraversalOpts{ViaProviders: []core.Service{core.CA}}, 3)))
}

// RenderFigure8 prints the CA→CDN amplification.
func RenderFigure8(w io.Writer, run *Run) {
	header(w, "Figure 8: top CDNs with vs without CA->CDN indirection (2020)")
	renderAmplification(w, Figure8(run, 5))
}

// RenderFigure9 prints the CDN→DNS amplification.
func RenderFigure9(w io.Writer, run *Run) {
	header(w, "Figure 9: top DNS providers with vs without CDN->DNS indirection (2020)")
	renderAmplification(w, Figure9(run, 5))
}

func renderProviderTrend(w io.Writer, t core.ProviderTrend) {
	fmt.Fprintf(w, "Private to Single Third Party   %d\n", t.PvtToSingle)
	fmt.Fprintf(w, "Single Third Party to Private   %d\n", t.SingleToPvt)
	fmt.Fprintf(w, "Redundancy to No Redundancy     %d\n", t.RedToNoRed)
	fmt.Fprintf(w, "No Redundancy to Redundancy     %d\n", t.NoRedToRed)
	fmt.Fprintf(w, "No CDN/DNS to Third Party       %d\n", t.NoneToThird)
	fmt.Fprintf(w, "Third Party to None             %d\n", t.ThirdToNone)
	fmt.Fprintf(w, "Critical dependency delta       %+d (of %d providers)\n", t.CriticalDelta, t.Total)
}

// RenderTable7 prints CA→DNS provider trends.
func RenderTable7(w io.Writer, run *Run) {
	header(w, "Table 7: CA->DNS provider trends 2016 vs 2020")
	renderProviderTrend(w, Table7(run))
}

// RenderTable8 prints CA→CDN provider trends.
func RenderTable8(w io.Writer, run *Run) {
	header(w, "Table 8: CA->CDN provider trends 2016 vs 2020")
	renderProviderTrend(w, Table8(run))
}

// RenderTable9 prints CDN→DNS provider trends.
func RenderTable9(w io.Writer, run *Run) {
	header(w, "Table 9: CDN->DNS provider trends 2016 vs 2020")
	renderProviderTrend(w, Table9(run))
}

// RenderHiddenDeps prints the §5 "additional websites" findings.
func RenderHiddenDeps(w io.Writer, run *Run) {
	h := HiddenDependencies(run)
	header(w, "Hidden dependencies of private infrastructure (2020)")
	fmt.Fprintf(w, "sites with private CDN on third-party DNS  %d (paper: 290 per 100K)\n", h.PrivateCDNThirdDNS)
	fmt.Fprintf(w, "sites with private CA on third-party CDN   %d (paper: 32 per 100K)\n", h.PrivateCAThirdCDN)
	fmt.Fprintf(w, "sites with private CA on third-party DNS   %d (paper: 3 per 100K)\n", h.PrivateCAThirdDNS)
}

// RenderCriticalDeps prints the §8.1 critical-dependencies histogram.
func RenderCriticalDeps(w io.Writer, run *Run) {
	h := CriticalDeps(run, 4)
	header(w, "Critical dependencies per website (2020)")
	fmt.Fprintf(w, "%-12s %10s %10s\n", ">=k deps", "direct", "indirect")
	for k := 1; k < len(h.DirectAtLeast); k++ {
		fmt.Fprintf(w, "k=%-10d %10s %10s\n", k, pct(h.DirectAtLeast[k]), pct(h.IndirectAtLeast[k]))
	}
}
