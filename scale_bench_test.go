//go:build !race

package depscope

// Scale benchmarks: the columnar graph engine's memory story and the
// memory-budgeted 1M-site end-to-end run. BENCH_scale.json is a frozen
// record of both (docs/scale.md gives the command that reproduces it);
// TestGateCompactBytesPerSite fails unless the compact representation
// holds at least 4x fewer bytes per site than the pointer graph at the
// paper's 100K scale.
//
// bytes_per_site is measured as retained live heap: GC, read HeapAlloc,
// build the graph from the shared measurement results, GC again, read
// again. Strings are shared with the measurement results on both sides (the
// pointer graph aliases them, the columnar one interns them into the
// process-wide dictionary, populated by the warm-up build), so the delta
// isolates what each representation itself adds.

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"depscope/internal/analysis"
	"depscope/internal/ecosystem"
	"depscope/internal/measure"
	"depscope/internal/membudget"
)

const scaleBenchSites = 100000

var (
	scaleOnce sync.Once
	scaleRes  *measure.Results
	scaleErr  error
)

// scaleFixture measures a 100K-site 2020 world once and shares the results
// across benchmark arms, so each arm times only its graph construction.
func scaleFixture(tb testing.TB) *measure.Results {
	tb.Helper()
	scaleOnce.Do(func() {
		u, err := ecosystem.Generate(ecosystem.Options{Scale: scaleBenchSites, Seed: 1})
		if err != nil {
			scaleErr = err
			return
		}
		w := ecosystem.Materialize(u, ecosystem.Y2020)
		scaleRes, scaleErr = measure.Run(context.Background(), w.Sites, measure.Config{
			Resolver: w.NewResolver(),
			Certs:    w.Certs,
			Pages:    w,
			CDNMap:   measure.CDNMap(w.CNAMEToCDN),
		})
	})
	if scaleErr != nil {
		tb.Fatal(scaleErr)
	}
	return scaleRes
}

// retainedBytes builds a graph and returns it with the live-heap delta it
// retains. The pre/post GC pair discards construction garbage, so the delta
// is the representation's resident footprint, not its allocation churn.
func retainedBytes(build func() any) (any, uint64) {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc <= before.HeapAlloc {
		return v, 0
	}
	return v, after.HeapAlloc - before.HeapAlloc
}

// graphBytesArms returns BenchmarkGraphBytes's two arms over the shared
// 100K fixture: each builds its representation and reports the retained
// bytes_per_site of the last build. Warm-up builds populate the interner's
// global dictionary and touch both construction paths once, so neither
// arm's first iteration pays one-time process-wide costs.
func graphBytesArms(tb testing.TB) (pointer, compact func(*testing.B)) {
	res := scaleFixture(tb)
	analysis.BuildGraph(res)
	analysis.BuildCompactGraph(res)
	arm := func(build func() any) func(*testing.B) {
		return func(b *testing.B) {
			var perSite float64
			for i := 0; i < b.N; i++ {
				g, bytes := retainedBytes(build)
				perSite = float64(bytes) / float64(len(res.Sites))
				runtime.KeepAlive(g)
			}
			b.ReportMetric(perSite, "bytes_per_site")
		}
	}
	return arm(func() any { return analysis.BuildGraph(res) }),
		arm(func() any { return analysis.BuildCompactGraph(res) })
}

// BenchmarkGraphBytes prices the two graph representations against each
// other at 100K sites: ns/op is construction time, bytes_per_site is the
// retained footprint per site.
func BenchmarkGraphBytes(b *testing.B) {
	pointer, compact := graphBytesArms(b)
	b.Run("pointer-100K", pointer)
	b.Run("compact-100K", compact)
}

// TestGateCompactBytesPerSite is the columnar engine's acceptance gate, run
// by `make bench-gates`: at 100K sites the compact graph must retain at
// least 4x fewer bytes per site than the pointer graph. It runs
// BenchmarkGraphBytes's own arms. It reads HeapAlloc, so it must not run
// in parallel with other tests.
func TestGateCompactBytesPerSite(t *testing.T) {
	if testing.Short() {
		t.Skip("measures a 100K-site world")
	}
	pointer, compact := graphBytesArms(t)
	p := testing.Benchmark(pointer).Extra["bytes_per_site"]
	c := testing.Benchmark(compact).Extra["bytes_per_site"]
	if p == 0 || c == 0 {
		t.Fatalf("no bytes_per_site measured (pointer %.0f, compact %.0f)", p, c)
	}
	t.Logf("compact graph advantage at 100K: %.1fx (%.2f vs %.2f bytes/site)", p/c, c, p)
	if p/c < 4 {
		t.Errorf("compact graph advantage at 100K is %.1fx, below the required 4x", p/c)
	}
}

// BenchmarkMeasureRun1M is the first-class 1M-site run — generate,
// stream-materialize, measure in batches, build the graph — under an 8GiB
// live-heap budget, plus the columnar graph built from its results. One iteration is a
// complete run, so BENCH_scale.json's frozen record was taken with
// -benchtime 1x. bytes_per_site here is the columnar graph's own
// accounting at 1M sites.
func BenchmarkMeasureRun1M(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-site arm")
	}
	var perSite float64
	for i := 0; i < b.N; i++ {
		run, err := analysis.Execute(context.Background(), analysis.Options{
			Scale:     1000000,
			Seed:      1,
			MemBudget: 8 * membudget.GiB,
			Snapshots: []ecosystem.Snapshot{ecosystem.Y2020},
		})
		if err != nil {
			b.Fatal(err)
		}
		cg := analysis.BuildCompactGraph(run.Y2020.Results)
		if cg.NSites() == 0 {
			b.Fatal("1M run produced no compact graph")
		}
		perSite = float64(cg.Bytes()) / float64(cg.NSites())
	}
	b.ReportMetric(perSite, "bytes_per_site")
}
