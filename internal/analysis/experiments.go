package analysis

import (
	"sort"
	"strconv"

	"depscope/internal/core"
	"depscope/internal/ecosystem"
	"depscope/internal/measure"
)

// This file contains one runner per table/figure of the paper's evaluation.
// Each runner consumes a Run and returns structured rows; render.go formats
// them in the layout of the paper.

// ---------------------------------------------------------------- Table 1/2

// DatasetSummary reproduces Table 1 (single snapshot) and Table 2
// (comparison population).
type DatasetSummary struct {
	Title              string
	CharacterizedDNS   int
	UsingCDN           int
	CharacterizedCDN   int
	SupportingHTTPS    int
	CharacterizedHTTPS int
}

// Table1 summarizes the 2020 dataset.
func Table1(run *Run) DatasetSummary {
	out := DatasetSummary{Title: "Table 1: 2020 dataset (" + strconv.Itoa(run.Scale) + " sites)"}
	for _, s := range run.Y2020.Graph.Sites {
		if consumes(s, core.DNS) {
			out.CharacterizedDNS++
		}
		if consumes(s, core.CDN) {
			out.UsingCDN++
			out.CharacterizedCDN++
		}
		if consumes(s, core.CA) {
			out.SupportingHTTPS++
			out.CharacterizedHTTPS++
		}
	}
	return out
}

// consumes reports whether site s counts in svc's population: characterized
// sites for DNS, CDN users for CDN, HTTPS sites for CA.
func consumes(s *core.Site, svc core.Service) bool {
	d, ok := s.Deps[svc]
	return ok && (svc != core.DNS || d.Class != core.ClassUnknown)
}

// serviceSites counts svc's population in g (see consumes).
func serviceSites(g *core.Graph, svc core.Service) int {
	n := 0
	for _, s := range g.Sites {
		if consumes(s, svc) {
			n++
		}
	}
	return n
}

// ComparisonSummary reproduces Table 2: the comparison population is the
// 2016 list restricted to sites alive in 2020.
type ComparisonSummary struct {
	CharacterizedDNS int
	UsingCDNEither   int
	CharacterizedCDN int
	HTTPSEither      int
	DeadFraction     float64
}

// Table2 summarizes the comparison dataset.
func Table2(run *Run) ComparisonSummary {
	out := ComparisonSummary{}
	g16, g20 := run.Y2016.Graph, run.Y2020.Graph
	total, dead := 0, 0
	for _, s := range run.Universe.List(ecosystem.Y2016) {
		total++
		s16, s20 := g16.Site(s.Domain), g20.Site(s.Domain)
		if s20 == nil {
			dead++
			continue
		}
		if consumes(s16, core.DNS) && consumes(s20, core.DNS) {
			out.CharacterizedDNS++
		}
		if consumes(s16, core.CDN) || consumes(s20, core.CDN) {
			out.UsingCDNEither++
			out.CharacterizedCDN++
		}
		if consumes(s16, core.CA) || consumes(s20, core.CA) {
			out.HTTPSEither++
		}
	}
	out.DeadFraction = float64(dead) / float64(total)
	return out
}

// ------------------------------------------------------------- Figures 2–4

// Figure2 returns the DNS dependency series per band (third-party, critical,
// multiple-third, private+third), as fractions of characterized sites.
func Figure2(run *Run) [4]core.BandStats {
	return core.ServiceBands(run.Y2020.Graph, core.DNS, run.Scale)
}

// Figure3 returns the CDN series per band over CDN-using sites.
func Figure3(run *Run) [4]core.BandStats {
	return core.ServiceBands(run.Y2020.Graph, core.CDN, run.Scale)
}

// CABandRow is one band of Figure 4.
type CABandRow struct {
	Label string
	// HTTPSFrac is the fraction of all sites in the band serving HTTPS;
	// ThirdCAFrac and StaplingFrac are fractions of the HTTPS sites.
	HTTPSFrac, ThirdCAFrac, StaplingFrac float64
}

// Figure4 returns HTTPS adoption, third-party-CA use and OCSP stapling per
// band.
func Figure4(run *Run) [4]CABandRow {
	return caBands(run.Y2020.Results, run.Scale)
}

func caBands(res *measure.Results, scale int) [4]CABandRow {
	var all, https, third, stapled [4]int
	for i := range res.Sites {
		sr := &res.Sites[i]
		b := core.BandOf(sr.Rank, scale)
		for k := b; k < 4; k++ {
			all[k]++
			if !sr.CA.HTTPS {
				continue
			}
			https[k]++
			if sr.CA.Third {
				third[k]++
			}
			if sr.CA.Stapled {
				stapled[k]++
			}
		}
	}
	var out [4]CABandRow
	for i := range out {
		out[i].Label = core.BandLabel(i, scale)
		out[i].HTTPSFrac = frac(https[i], all[i])
		out[i].ThirdCAFrac = frac(third[i], https[i])
		out[i].StaplingFrac = frac(stapled[i], https[i])
	}
	return out
}

// ------------------------------------------------------------- Tables 3–5

// classesOf maps each site of g consuming svc to its class there.
func classesOf(g *core.Graph, svc core.Service) core.SiteClasses {
	out := make(core.SiteClasses, len(g.Sites))
	for _, s := range g.Sites {
		if d, ok := s.Deps[svc]; ok {
			out[s.Name] = d.Class
		}
	}
	return out
}

// ranks2016 maps site → 2016 rank for the comparison analyses.
func ranks2016(run *Run) map[string]int {
	out := make(map[string]int)
	for _, s := range run.Universe.List(ecosystem.Y2016) {
		out[s.Domain] = s.Rank2016
	}
	return out
}

// Table3 computes the website→DNS trend table.
func Table3(run *Run) [4]core.TrendRow {
	return core.ModeTrends(
		classesOf(run.Y2016.Graph, core.DNS),
		classesOf(run.Y2020.Graph, core.DNS),
		ranks2016(run), run.Scale)
}

// Table4 computes the website→CDN trend table.
func Table4(run *Run) [4]core.TrendRow {
	return core.ModeTrends(
		classesOf(run.Y2016.Graph, core.CDN),
		classesOf(run.Y2020.Graph, core.CDN),
		ranks2016(run), run.Scale)
}

// Table5 computes the website→CA stapling trend table.
func Table5(run *Run) [4]core.StaplingTrendRow {
	staple := func(res *measure.Results) map[string]bool {
		out := make(map[string]bool)
		for i := range res.Sites {
			sr := &res.Sites[i]
			if sr.CA.HTTPS {
				out[sr.Site] = sr.CA.Stapled
			}
		}
		return out
	}
	return core.StaplingTrends(
		staple(run.Y2016.Results), staple(run.Y2020.Results),
		ranks2016(run), run.Scale)
}

// --------------------------------------------------------------- Figure 5

// ProviderRow is a provider with concentration and impact as fractions of
// the population the figure normalizes by.
type ProviderRow struct {
	Name                  string
	Concentration, Impact float64
}

// Figure5 returns the top-n providers of a service by direct concentration,
// normalized by the number of sites consuming that service (DNS:
// characterized sites; CDN: CDN users; CA: HTTPS sites).
func Figure5(run *Run, svc core.Service, n int) []ProviderRow {
	sd := run.Y2020
	denom := serviceSites(sd.Graph, svc)
	stats := sd.Graph.TopProviders(svc, core.DirectOnly(), false, n)
	out := make([]ProviderRow, 0, len(stats))
	for _, st := range stats {
		out = append(out, ProviderRow{
			Name:          st.Name,
			Concentration: frac(st.Concentration, denom),
			Impact:        frac(st.Impact, denom),
		})
	}
	return out
}

// Figure5Band ranks providers within one popularity band (cumulative:
// band b covers ranks 1..scale/10^(3-b)), normalized by the band's
// service-consuming sites. It reproduces the paper's rank-dependent
// observations (Dyn most popular in the top-100; Akamai dominating the
// top-100 CDN market).
func Figure5Band(run *Run, svc core.Service, band, n int) []ProviderRow {
	sd := run.Y2020
	maxRank := run.Scale
	for i := 3; i > band; i-- {
		maxRank /= 10
	}
	denom := 0
	usage := make(map[string]map[string]bool)
	critical := make(map[string]map[string]bool)
	for _, s := range sd.Graph.Sites {
		if s.Rank > maxRank || !consumes(s, svc) {
			continue
		}
		denom++
		d := s.Deps[svc]
		for _, pname := range d.Providers {
			if usage[pname] == nil {
				usage[pname] = make(map[string]bool)
				critical[pname] = make(map[string]bool)
			}
			usage[pname][s.Name] = true
			if d.Class.Critical() {
				critical[pname][s.Name] = true
			}
		}
	}
	var rows []ProviderRow
	for pname, users := range usage {
		rows = append(rows, ProviderRow{
			Name:          pname,
			Concentration: frac(len(users), denom),
			Impact:        frac(len(critical[pname]), denom),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Concentration != rows[j].Concentration {
			return rows[i].Concentration > rows[j].Concentration
		}
		return rows[i].Name < rows[j].Name
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// --------------------------------------------------------------- Figure 6

// CDFSeries is one snapshot's provider-concentration CDF.
type CDFSeries struct {
	Year           string
	Points         []core.CDFPoint
	ProvidersFor80 int
	Distinct       int
}

// Figure6 returns the 2016-vs-2020 CDFs for a service.
func Figure6(run *Run, svc core.Service) [2]CDFSeries {
	var out [2]CDFSeries
	for i, sd := range []*SnapshotData{run.Y2016, run.Y2020} {
		cdf := core.ConcentrationCDF(sd.Graph, svc)
		out[i] = CDFSeries{
			Year:           sd.Snapshot.String(),
			Points:         cdf,
			ProvidersFor80: core.ProvidersForCoverage(cdf, 0.80),
			Distinct:       core.DistinctProviders(sd.Graph, svc),
		}
	}
	return out
}

// ---------------------------------------------------------------- Table 6

// InterServiceRow is one dependency type of Table 6.
type InterServiceRow struct {
	Name     string
	Total    int
	Third    int
	Critical int
}

// Table6 counts provider-level third-party and critical dependencies for
// CDN→DNS, CA→DNS and CA→CDN. Per-site private infrastructure (alias CDNs,
// alias PKI domains) is excluded: the paper counts commercial providers.
func Table6(run *Run) [3]InterServiceRow {
	res := run.Y2020.Results
	rows := [3]InterServiceRow{
		{Name: "CDN->DNS"}, {Name: "CA->DNS"}, {Name: "CA->CDN"},
	}
	countInto := func(row *InterServiceRow, deps map[string]measure.ProviderDep, private map[string]bool) {
		for name, dep := range deps {
			if private[name] {
				continue
			}
			row.Total++
			if dep.Class.UsesThird() {
				row.Third++
			}
			if dep.Class.Critical() {
				row.Critical++
			}
		}
	}
	priv := privateInfraNames(res)
	countInto(&rows[0], res.CDNToDNS, priv)
	countInto(&rows[1], res.CAToDNS, priv)
	countInto(&rows[2], res.CAToCDN, priv)
	return rows
}

// privateInfraNames identifies per-site private infrastructure identities
// appearing in the inter-service maps.
func privateInfraNames(res *measure.Results) map[string]bool {
	out := make(map[string]bool)
	for i := range res.Sites {
		sr := &res.Sites[i]
		for _, pc := range sr.CDN.PrivateCDNs {
			out[pc] = true
		}
		if sr.CA.HTTPS && !sr.CA.Third && sr.CA.CAName != "" {
			out[sr.CA.CAName] = true
		}
	}
	return out
}

// ------------------------------------------------------- Figures 7, 8, 9

// AmplificationRow compares a provider's direct-only and with-indirection
// concentration/impact (fractions of the figure's site population).
type AmplificationRow struct {
	Name                  string
	DirectConcentration   float64
	IndirectConcentration float64
	DirectImpact          float64
	IndirectImpact        float64
}

// Amplification computes the Fig 7/8/9 comparison: the top-n providers of
// target ranked by with-indirection concentration, where indirection
// traverses only providers of via (CA for Fig 7/8, CDN for Fig 9).
func Amplification(run *Run, target core.Service, via core.Service, n int) []AmplificationRow {
	sd := run.Y2020
	// Fig 7/9 normalize by DNS-characterized sites; Fig 8 ("percent of the
	// top-100K websites") by the full list.
	denom := serviceSites(sd.Graph, core.DNS)
	if target == core.CDN {
		denom = len(sd.Graph.Sites)
	}
	opts := core.TraversalOpts{ViaProviders: []core.Service{via}}
	stats := sd.Graph.TopProviders(target, opts, false, n)
	out := make([]AmplificationRow, 0, len(stats))
	for _, st := range stats {
		out = append(out, AmplificationRow{
			Name:                  st.Name,
			DirectConcentration:   frac(sd.Graph.Concentration(st.Name, core.DirectOnly()), denom),
			IndirectConcentration: frac(st.Concentration, denom),
			DirectImpact:          frac(sd.Graph.Impact(st.Name, core.DirectOnly()), denom),
			IndirectImpact:        frac(st.Impact, denom),
		})
	}
	return out
}

// Figure7 is the CA→DNS amplification of the top DNS providers.
func Figure7(run *Run, n int) []AmplificationRow {
	return Amplification(run, core.DNS, core.CA, n)
}

// Figure8 is the CA→CDN amplification of the top CDNs.
func Figure8(run *Run, n int) []AmplificationRow {
	return Amplification(run, core.CDN, core.CA, n)
}

// Figure9 is the CDN→DNS amplification of the top DNS providers.
func Figure9(run *Run, n int) []AmplificationRow {
	return Amplification(run, core.DNS, core.CDN, n)
}

// TopKImpactShare returns the fraction of service-consuming sites critically
// dependent on the top-k providers of target under opts (Obs 7/9/10: e.g.
// 72% of sites critically depend on 3 DNS providers with CA→DNS edges).
func TopKImpactShare(run *Run, target core.Service, opts core.TraversalOpts, k int) float64 {
	sd := run.Y2020
	stats := sd.Graph.TopProviders(target, opts, true, k)
	union := make(map[string]bool)
	for _, st := range stats {
		for site := range sd.Graph.ImpactSet(st.Name, opts) {
			union[site] = true
		}
	}
	return frac(len(union), serviceSites(sd.Graph, core.DNS))
}

// ------------------------------------------------------- Tables 7, 8, 9

// providerClasses extracts provider → class maps for one dependency type,
// excluding per-site private infrastructure.
func providerClasses(res *measure.Results, deps map[string]measure.ProviderDep) map[string]core.DepClass {
	priv := privateInfraNames(res)
	out := make(map[string]core.DepClass)
	for name, dep := range deps {
		if !priv[name] {
			out[name] = dep.Class
		}
	}
	return out
}

// Table7 computes CA→DNS provider trends between snapshots.
func Table7(run *Run) core.ProviderTrend {
	return core.ProviderTrends(
		providerClasses(run.Y2016.Results, run.Y2016.Results.CAToDNS),
		providerClasses(run.Y2020.Results, run.Y2020.Results.CAToDNS))
}

// Table8 computes CA→CDN provider trends.
func Table8(run *Run) core.ProviderTrend {
	return core.ProviderTrends(
		providerClasses(run.Y2016.Results, run.Y2016.Results.CAToCDN),
		providerClasses(run.Y2020.Results, run.Y2020.Results.CAToCDN))
}

// Table9 computes CDN→DNS provider trends.
func Table9(run *Run) core.ProviderTrend {
	return core.ProviderTrends(
		providerClasses(run.Y2016.Results, run.Y2016.Results.CDNToDNS),
		providerClasses(run.Y2020.Results, run.Y2020.Results.CDNToDNS))
}

// ---------------------------------------------------- §5/§8 hidden deps

// HiddenDeps reproduces the "additional websites" findings: sites whose
// private infrastructure rides third parties (§5.1: private CA on
// third-party DNS; §5.2: private CA on third-party CDN; §5.3: private CDN
// on third-party DNS).
type HiddenDeps struct {
	PrivateCDNThirdDNS int
	PrivateCAThirdDNS  int
	PrivateCAThirdCDN  int
}

// HiddenDependencies counts them for 2020.
func HiddenDependencies(run *Run) HiddenDeps {
	res := run.Y2020.Results
	out := HiddenDeps{}
	for i := range res.Sites {
		sr := &res.Sites[i]
		for _, pc := range sr.CDN.PrivateCDNs {
			if dep, ok := res.CDNToDNS[pc]; ok && dep.Class.UsesThird() {
				out.PrivateCDNThirdDNS++
				break
			}
		}
		if sr.CA.HTTPS && !sr.CA.Third && sr.CA.CAName != "" {
			if dep, ok := res.CAToDNS[sr.CA.CAName]; ok && dep.Class.UsesThird() {
				out.PrivateCAThirdDNS++
			}
			if dep, ok := res.CAToCDN[sr.CA.CAName]; ok && dep.Class.UsesThird() {
				out.PrivateCAThirdCDN++
			}
		}
	}
	return out
}

// CriticalDepsHistogram returns the fraction of sites with >= k critical
// dependencies, direct vs with indirection (§8.1: 9.6% vs 25% at k=3).
type CriticalDepsHistogram struct {
	// AtLeast[k] is the fraction of sites with >= k critical dependencies.
	DirectAtLeast   []float64
	IndirectAtLeast []float64
}

// CriticalDeps computes the histogram up to maxK.
func CriticalDeps(run *Run, maxK int) CriticalDepsHistogram {
	g := run.Y2020.Graph
	direct := g.CriticalDepsPerSite(false)
	indirect := g.CriticalDepsPerSite(true)
	n := len(g.Sites)
	h := CriticalDepsHistogram{
		DirectAtLeast:   make([]float64, maxK+1),
		IndirectAtLeast: make([]float64, maxK+1),
	}
	for k := 0; k <= maxK; k++ {
		var d, ind int
		for _, c := range direct {
			if c >= k {
				d++
			}
		}
		for _, c := range indirect {
			if c >= k {
				ind++
			}
		}
		h.DirectAtLeast[k] = frac(d, n)
		h.IndirectAtLeast[k] = frac(ind, n)
	}
	return h
}

// ----------------------------------------------------------------- util

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
