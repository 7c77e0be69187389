package analysis

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	"depscope/internal/conc"
	"depscope/internal/core"
	"depscope/internal/dnsmsg"
	"depscope/internal/ecosystem"
	"depscope/internal/measure"
	"depscope/internal/resolver"
)

// deadDomains fails every query for a poisoned name, so the sites owning
// those names come back uncharacterized under conc.Collect.
type deadDomains struct {
	inner resolver.Transport
	bad   map[string]bool
}

func (d deadDomains) Exchange(ctx context.Context, q *dnsmsg.Message) (*dnsmsg.Message, error) {
	if d.bad[dnsmsg.CanonicalName(q.Questions[0].Name)] {
		return nil, errors.New("injected resolver failure")
	}
	return d.inner.Exchange(ctx, q)
}

// collectRun measures both snapshots of a small universe under conc.Collect
// over a transport that fails every 7th site's queries.
func collectRun(t *testing.T) *Run {
	t.Helper()
	const scale = 2000
	u, err := ecosystem.Generate(ecosystem.Options{Scale: scale, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	run := &Run{Scale: scale, Universe: u}
	for _, snap := range []ecosystem.Snapshot{ecosystem.Y2016, ecosystem.Y2020} {
		w := ecosystem.Materialize(u, snap)
		bad := make(map[string]bool)
		for i := 0; i < len(w.Sites); i += 7 {
			bad[dnsmsg.CanonicalName(w.Sites[i])] = true
		}
		cfg := measureConfig(w, Options{Workers: 2, ErrorPolicy: conc.Collect})
		cfg.Resolver = resolver.New(deadDomains{inner: resolver.ZoneDirect{Store: w.Zones}, bad: bad})
		res, err := measure.Run(context.Background(), w.Sites, cfg)
		if err != nil {
			t.Fatalf("%s: %v", snap, err)
		}
		if len(res.Diagnostics.Errors) == 0 {
			t.Fatalf("%s: no injected failure was recorded", snap)
		}
		sd := &SnapshotData{Snapshot: snap, World: w, Results: res, Graph: BuildGraph(res)}
		if snap == ecosystem.Y2016 {
			run.Y2016 = sd
		} else {
			run.Y2020 = sd
		}
	}
	return run
}

// The reference runners below read measure.Results directly, the way the
// table runners did before they read the graph.

func refDenominator(res *measure.Results, svc core.Service) int {
	n := 0
	for i := range res.Sites {
		if _, ok := refArrangement(&res.Sites[i], svc); ok {
			n++
		}
	}
	return n
}

// refArrangement is a site's class and providers for svc, and whether the
// site counts in svc's population.
func refArrangement(sr *measure.SiteResult, svc core.Service) (core.Dep, bool) {
	switch svc {
	case core.DNS:
		return core.Dep{Class: sr.DNS.Class, Providers: sr.DNS.Providers}, sr.DNS.Class != core.ClassUnknown
	case core.CDN:
		return core.Dep{Class: sr.CDN.Class, Providers: sr.CDN.Third}, sr.CDN.UsesCDN
	case core.CA:
		d := core.Dep{Class: sr.CA.Class}
		if sr.CA.Third {
			d.Providers = []string{sr.CA.CAName}
		}
		return d, sr.CA.HTTPS
	}
	return core.Dep{}, false
}

func refTable1(run *Run) DatasetSummary {
	res := run.Y2020.Results
	out := Table1(run) // for the title
	out.CharacterizedDNS = refDenominator(res, core.DNS)
	out.UsingCDN = refDenominator(res, core.CDN)
	out.CharacterizedCDN = out.UsingCDN
	out.SupportingHTTPS = refDenominator(res, core.CA)
	out.CharacterizedHTTPS = out.SupportingHTTPS
	return out
}

func refTable2(run *Run) ComparisonSummary {
	index := func(res *measure.Results) map[string]*measure.SiteResult {
		out := make(map[string]*measure.SiteResult, len(res.Sites))
		for i := range res.Sites {
			out[res.Sites[i].Site] = &res.Sites[i]
		}
		return out
	}
	res16, res20 := index(run.Y2016.Results), index(run.Y2020.Results)
	var out ComparisonSummary
	total, dead := 0, 0
	for _, s := range run.Universe.List(ecosystem.Y2016) {
		total++
		r16, r20 := res16[s.Domain], res20[s.Domain]
		if r20 == nil {
			dead++
			continue
		}
		if r16.DNS.Class != core.ClassUnknown && r20.DNS.Class != core.ClassUnknown {
			out.CharacterizedDNS++
		}
		if r16.CDN.UsesCDN || r20.CDN.UsesCDN {
			out.UsingCDNEither++
			out.CharacterizedCDN++
		}
		if r16.CA.HTTPS || r20.CA.HTTPS {
			out.HTTPSEither++
		}
	}
	out.DeadFraction = float64(dead) / float64(total)
	return out
}

func refClasses(res *measure.Results, svc core.Service) core.SiteClasses {
	out := make(core.SiteClasses)
	for i := range res.Sites {
		sr := &res.Sites[i]
		d, ok := refArrangement(sr, svc)
		if ok || svc == core.DNS {
			out[sr.Site] = d.Class
		}
	}
	return out
}

func refFigure5Band(run *Run, svc core.Service, band, n int) []ProviderRow {
	res := run.Y2020.Results
	maxRank := run.Scale
	for i := 3; i > band; i-- {
		maxRank /= 10
	}
	denom := 0
	usage := make(map[string]map[string]bool)
	critical := make(map[string]map[string]bool)
	for i := range res.Sites {
		sr := &res.Sites[i]
		d, ok := refArrangement(sr, svc)
		if sr.Rank > maxRank || !ok {
			continue
		}
		denom++
		for _, p := range d.Providers {
			if usage[p] == nil {
				usage[p], critical[p] = make(map[string]bool), make(map[string]bool)
			}
			usage[p][sr.Site] = true
			if d.Class.Critical() {
				critical[p][sr.Site] = true
			}
		}
	}
	var rows []ProviderRow
	for p, users := range usage {
		rows = append(rows, ProviderRow{Name: p, Concentration: frac(len(users), denom), Impact: frac(len(critical[p]), denom)})
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

// TestGraphTablesMatchResultsUnderCollect checks the one case in which a
// site's arrangements in the graph and in Results could part: a Collect run
// whose failed classifiers left sites uncharacterized. Every table that
// reads the graph must equal its Results-based reference.
func TestGraphTablesMatchResultsUnderCollect(t *testing.T) {
	run := collectRun(t)
	if got := refDenominator(run.Y2020.Results, core.DNS); got == len(run.Y2020.Results.Sites) {
		t.Fatal("no site was left uncharacterized; the injected faults did not bite")
	}
	if got, want := Table1(run), refTable1(run); got != want {
		t.Errorf("Table1 = %+v, want %+v", got, want)
	}
	if got, want := Table2(run), refTable2(run); got != want {
		t.Errorf("Table2 = %+v, want %+v", got, want)
	}
	for _, sd := range []*SnapshotData{run.Y2016, run.Y2020} {
		if len(sd.Graph.Sites) != len(sd.Results.Sites) {
			t.Errorf("%s: graph has %d sites, Results %d", sd.Snapshot, len(sd.Graph.Sites), len(sd.Results.Sites))
		}
		for _, svc := range []core.Service{core.DNS, core.CDN, core.CA} {
			if got, want := serviceSites(sd.Graph, svc), refDenominator(sd.Results, svc); got != want {
				t.Errorf("%s %s denominator = %d, want %d", sd.Snapshot, svc, got, want)
			}
			if got, want := classesOf(sd.Graph, svc), refClasses(sd.Results, svc); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s site classes differ from Results", sd.Snapshot, svc)
			}
		}
	}
	ranks := ranks2016(run)
	for i, svc := range []core.Service{core.DNS, core.CDN} {
		got := [2]func(*Run) [4]core.TrendRow{Table3, Table4}[i](run)
		want := core.ModeTrends(refClasses(run.Y2016.Results, svc), refClasses(run.Y2020.Results, svc), ranks, run.Scale)
		if got != want {
			t.Errorf("%s trend table = %+v, want %+v", svc, got, want)
		}
	}
	for _, svc := range []core.Service{core.DNS, core.CDN, core.CA} {
		for band := 0; band < 4; band++ {
			got, want := Figure5Band(run, svc, band, 0), refFigure5Band(run, svc, band, 0)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Figure5Band(%s, %d) = %+v, want %+v", svc, band, got, want)
			}
		}
	}
}
