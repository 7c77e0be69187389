package depscope

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation (DESIGN.md §4 maps them), plus ablation benchmarks for the
// design choices the reproduction calls out: the combined classification
// heuristic vs the TLD/SOA strawmen, transitive vs direct impact, and the
// in-process resolver path vs the real UDP wire path.
//
// The world is generated and measured once per scale and shared across
// benchmarks; each benchmark then times its experiment runner, so the
// b.N numbers isolate analysis cost from world construction.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"depscope/internal/analysis"
	"depscope/internal/casestudy"
	"depscope/internal/core"
	"depscope/internal/dnsserver"
	"depscope/internal/ecosystem"
	"depscope/internal/measure"
	"depscope/internal/resolver"
)

// benchScale keeps full-pipeline construction around a second; the CLI runs
// the same code at the paper's 100K.
const benchScale = 10000

var (
	benchOnce sync.Once
	benchRun  *analysis.Run
	benchErr  error
)

func benchFixture(b *testing.B) *analysis.Run {
	b.Helper()
	benchOnce.Do(func() {
		benchRun, benchErr = analysis.Execute(context.Background(), analysis.Options{
			Scale: benchScale,
			Seed:  2020,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchRun
}

// BenchmarkEndToEndPipeline measures the full generate+materialize+measure
// cycle for both snapshots at a reduced scale.
func BenchmarkEndToEndPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Execute(context.Background(), analysis.Options{Scale: 2000, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Tables ----

func BenchmarkTable1DatasetSummary(b *testing.B) {
	run := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := analysis.Table1(run)
		if t.CharacterizedDNS == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2ComparisonSummary(b *testing.B) {
	run := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := analysis.Table2(run)
		if t.CharacterizedDNS == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable3DNSTrends(b *testing.B) {
	run := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := analysis.Table3(run)
		if rows[3].PvtToSingle == 0 {
			b.Fatal("empty trends")
		}
	}
}

func BenchmarkTable4CDNTrends(b *testing.B) {
	run := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Table4(run)
	}
}

func BenchmarkTable5CATrends(b *testing.B) {
	run := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := analysis.Table5(run)
		if rows[3].StapleToNo == 0 {
			b.Fatal("empty trends")
		}
	}
}

func BenchmarkTable6InterService(b *testing.B) {
	run := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := analysis.Table6(run)
		if rows[1].Third == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable7CADNSTrends(b *testing.B) {
	run := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := analysis.Table7(run)
		if t.Total == 0 {
			b.Fatal("empty trends")
		}
	}
}

func BenchmarkTable8CACDNTrends(b *testing.B) {
	run := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Table8(run)
	}
}

func BenchmarkTable9CDNDNSTrends(b *testing.B) {
	run := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Table9(run)
	}
}

func BenchmarkTable10Hospitals(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := casestudy.Hospitals(context.Background(), 6)
		if err != nil {
			b.Fatal(err)
		}
		if rep.DNSThird == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkTable11SmartHome(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := casestudy.SmartHome(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if rep.DNSCritical == 0 {
			b.Fatal("empty report")
		}
	}
}

// ---- Figures ----

func BenchmarkFigure2DNSDependency(b *testing.B) {
	run := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := analysis.Figure2(run)
		if f[3].Total == 0 {
			b.Fatal("empty bands")
		}
	}
}

func BenchmarkFigure3CDNDependency(b *testing.B) {
	run := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Figure3(run)
	}
}

func BenchmarkFigure4CADependency(b *testing.B) {
	run := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Figure4(run)
	}
}

func BenchmarkFigure5ProviderConcentration(b *testing.B) {
	run := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, svc := range []core.Service{core.DNS, core.CDN, core.CA} {
			if rows := analysis.Figure5(run, svc, 5); len(rows) == 0 {
				b.Fatal("no providers")
			}
		}
	}
}

// BenchmarkTopProvidersBatch prices the metrics engine's cold fill against
// the raw recursion on the measured 2020 snapshot: every arm answers C_p and
// I_p for every declared provider, starting cold. The "batch" arm runs the
// SCC+bitset propagation (the whole 854-name universe up front); the
// "perprovider" arm walks the recursive sets with no engine at all, the
// shape every Figure 5 render used to pay.
func BenchmarkTopProvidersBatch(b *testing.B) {
	run := benchFixture(b)
	g := run.Y2020.Graph
	opts := core.AllIndirect()
	var names []string
	for name := range g.Providers {
		names = append(names, name)
	}
	queryAll := func(b *testing.B, e *core.MetricsEngine) {
		for _, name := range names {
			if e.Concentration(name, opts)+e.Impact(name, opts) < 0 {
				b.Fatal("impossible")
			}
		}
	}
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			queryAll(b, core.NewMetricsEngine(g, 0))
		}
	})
	b.Run("perprovider", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, name := range names {
				if len(g.ConcentrationSet(name, opts))+len(g.ImpactSet(name, opts)) < 0 {
					b.Fatal("impossible")
				}
			}
		}
	})
}

func BenchmarkFigure6ConcentrationCDF(b *testing.B) {
	run := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, svc := range []core.Service{core.DNS, core.CDN, core.CA} {
			s := analysis.Figure6(run, svc)
			if s[1].Distinct == 0 {
				b.Fatal("no providers")
			}
		}
	}
}

func BenchmarkFigure7CADNSAmplification(b *testing.B) {
	run := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := analysis.Figure7(run, 5); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFigure8CACDNAmplification(b *testing.B) {
	run := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Figure8(run, 5)
	}
}

func BenchmarkFigure9CDNDNSAmplification(b *testing.B) {
	run := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Figure9(run, 5)
	}
}

func BenchmarkCriticalDepsPerSite(b *testing.B) {
	run := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := analysis.CriticalDeps(run, 4)
		if h.IndirectAtLeast[1] == 0 {
			b.Fatal("empty histogram")
		}
	}
}

func BenchmarkHiddenDependencies(b *testing.B) {
	run := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.HiddenDependencies(run)
	}
}

// ---- Validation / ablation benchmarks ----

// BenchmarkValidationAccuracy times the §3.1 heuristic-comparison
// experiment: the combined classifier against the TLD and SOA strawmen over
// a 100-site sample.
func BenchmarkValidationAccuracy(b *testing.B) {
	run := benchFixture(b)
	sd := run.Y2020
	bl := measure.NewBaselines(measure.Config{
		Resolver: sd.World.NewResolver(),
		Certs:    sd.World.Certs,
		Pages:    sd.World,
		CDNMap:   measure.CDNMap(sd.World.CNAMEToCDN),
	})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < 100; s++ {
			sr := &sd.Results.Sites[s]
			for _, pair := range sr.DNS.Pairs {
				bl.TLD(sr.Site, pair.Host)
				if _, err := bl.SOA(ctx, sr.Site, pair.Host); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkAblationImpactDirectVsTransitive quantifies the cost of the
// paper's transitive impact formula against the one-hop approximation.
func BenchmarkAblationImpactDirectVsTransitive(b *testing.B) {
	run := benchFixture(b)
	g := run.Y2020.Graph
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Impact("dnsmadeeasy.com", core.DirectOnly())
		}
	})
	b.Run("transitive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Impact("dnsmadeeasy.com", core.AllIndirect())
		}
	})
}

// BenchmarkAblationResolverPath compares the in-process zone path against
// the real UDP wire path for the same NS lookup.
func BenchmarkAblationResolverPath(b *testing.B) {
	run := benchFixture(b)
	world := run.Y2020.World
	site := world.Sites[0]
	ctx := context.Background()

	b.Run("zonedirect", func(b *testing.B) {
		r := world.NewResolver()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.FlushCache()
			if _, err := r.NS(ctx, site); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("udp", func(b *testing.B) {
		srv := dnsserver.New(world.Zones, dnsserver.Config{})
		addr, err := srv.Start()
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		r := resolver.New(resolver.NewUDPTransport(addr))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.FlushCache()
			if _, err := r.NS(ctx, site); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMeasureOnly isolates the measurement pipeline over a prebuilt
// world (the paper's crawl+classify stage).
func BenchmarkMeasureOnly(b *testing.B) {
	u, err := ecosystem.Generate(ecosystem.Options{Scale: 2000, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	w := ecosystem.Materialize(u, ecosystem.Y2020)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := measure.Run(context.Background(), w.Sites, measure.Config{
			Resolver: w.NewResolver(),
			Certs:    w.Certs,
			Pages:    w,
			CDNMap:   measure.CDNMap(w.CNAMEToCDN),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// sanity check that the fixture is reusable from a plain test too.
func TestBenchFixture(t *testing.T) {
	benchOnce.Do(func() {
		benchRun, benchErr = analysis.Execute(context.Background(), analysis.Options{
			Scale: benchScale,
			Seed:  2020,
		})
	})
	if benchErr != nil {
		t.Fatal(benchErr)
	}
	if got := len(benchRun.Y2020.Results.Sites); got != benchScale {
		t.Fatalf("fixture sites = %d, want %d", got, benchScale)
	}
	fmt.Println("bench fixture ready:", benchScale, "sites")
}

// BenchmarkAblationHeuristicVariants times the rule-ablation re-runs of the
// DNS classifier (four full pipeline passes).
func BenchmarkAblationHeuristicVariants(b *testing.B) {
	run := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := analysis.HeuristicAblation(context.Background(), run)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("bad ablation")
		}
	}
}
