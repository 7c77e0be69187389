package measure

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"depscope/internal/conc"
	"depscope/internal/core"
	"depscope/internal/dnsmsg"
	"depscope/internal/ecosystem"
	"depscope/internal/resolver"
)

// failingTransport fails every query whose name falls under a poisoned
// domain, simulating dead domains on a live resolver.
type failingTransport struct {
	inner resolver.Transport
	bad   map[string]bool // canonical domains whose queries fail
}

var errInjected = errors.New("injected resolver failure")

func (f failingTransport) Exchange(ctx context.Context, q *dnsmsg.Message) (*dnsmsg.Message, error) {
	if f.bad[dnsmsg.CanonicalName(q.Questions[0].Name)] {
		return nil, errInjected
	}
	return f.inner.Exchange(ctx, q)
}

// TestRunCollectToleratesInjectedFailures exercises the acceptance criterion
// for conc.Collect: a run with injected resolver failures completes, marks
// the affected sites uncharacterized, and reports per-stage error counts in
// Results.Diagnostics.
func TestRunCollectToleratesInjectedFailures(t *testing.T) {
	u, err := ecosystem.Generate(ecosystem.Options{Scale: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	w := ecosystem.Materialize(u, ecosystem.Y2020)
	bad := map[string]bool{}
	var badSites []string
	for i := 0; i < len(w.Sites); i += 25 {
		bad[dnsmsg.CanonicalName(w.Sites[i])] = true
		badSites = append(badSites, w.Sites[i])
	}
	cfg := Config{
		Resolver:    resolver.New(failingTransport{inner: resolver.ZoneDirect{Store: w.Zones}, bad: bad}),
		Certs:       w.Certs,
		Pages:       w,
		CDNMap:      CDNMap(w.CNAMEToCDN),
		Workers:     4,
		ErrorPolicy: conc.Collect,
	}
	res, err := Run(context.Background(), w.Sites, cfg)
	if err != nil {
		t.Fatalf("Collect run failed outright: %v", err)
	}
	if len(res.Sites) != len(w.Sites) {
		t.Fatalf("measured %d sites, want %d", len(res.Sites), len(w.Sites))
	}

	// Affected sites come back uncharacterized, the rest fully classified.
	unknown := 0
	for _, site := range badSites {
		for i := range res.Sites {
			if res.Sites[i].Site == site {
				if res.Sites[i].DNS.Class != core.ClassUnknown {
					t.Errorf("dead site %s DNS class = %v, want unknown", site, res.Sites[i].DNS.Class)
				}
				unknown++
			}
		}
	}
	if unknown != len(badSites) {
		t.Fatalf("found %d of %d dead sites in results", unknown, len(badSites))
	}
	classified := 0
	for i := range res.Sites {
		if res.Sites[i].DNS.Class != core.ClassUnknown {
			classified++
		}
	}
	if classified == 0 {
		t.Error("no healthy site was classified")
	}

	// Per-stage error accounting: the resolve stage saw every NS failure.
	byStage := map[string]StageDiag{}
	for _, sd := range res.Diagnostics.Stages {
		byStage[sd.Stage] = sd
	}
	if got := byStage["resolve"].Errors; got != len(badSites) {
		t.Errorf("resolve stage errors = %d, want %d", got, len(badSites))
	}
	if byStage["resolve"].Sites != len(w.Sites) {
		t.Errorf("resolve stage processed %d, want %d", byStage["resolve"].Sites, len(w.Sites))
	}
	// Dead HTTPS sites also fail their CA/CDN stage lookups.
	if byStage["ca"].Errors+byStage["cdn"].Errors == 0 {
		t.Error("no ca/cdn stage errors recorded for dead sites")
	}
	if res.Diagnostics.TotalErrors() == 0 {
		t.Error("TotalErrors = 0")
	}
	if len(res.Diagnostics.Errors) == 0 {
		t.Fatal("no per-site errors recorded")
	}
	for i, e := range res.Diagnostics.Errors {
		if e.Site == "" || e.Stage == "" || e.Err == "" {
			t.Fatalf("malformed recorded error %+v", e)
		}
		if i > 0 {
			prev := res.Diagnostics.Errors[i-1]
			if e.Site < prev.Site || (e.Site == prev.Site && e.Stage < prev.Stage) {
				t.Fatal("recorded errors not sorted by site then stage")
			}
		}
	}
	if res.Diagnostics.Resolver.Queries == 0 {
		t.Error("resolver stats missing from diagnostics")
	}

	// The same world under FailFast must abort instead.
	ff := cfg
	ff.Resolver = resolver.New(failingTransport{inner: resolver.ZoneDirect{Store: w.Zones}, bad: bad})
	ff.ErrorPolicy = conc.FailFast
	if _, err := Run(context.Background(), w.Sites, ff); !errors.Is(err, errInjected) {
		t.Errorf("FailFast error = %v, want the injected failure", err)
	}
}

// TestRunDiagnosticsHealthy checks the diagnostics of a clean FailFast run:
// every stage processed every site, nothing errored, and the resolver cache
// absorbed a meaningful share of the lookups.
func TestRunDiagnosticsHealthy(t *testing.T) {
	f := getFixture(t, ecosystem.Y2020)
	d := f.res.Diagnostics
	wantOrder := []string{"resolve", "dns", "ca", "cdn", "interservice"}
	if len(d.Stages) != len(wantOrder) {
		t.Fatalf("stages = %+v, want %v", d.Stages, wantOrder)
	}
	for i, sd := range d.Stages {
		if sd.Stage != wantOrder[i] {
			t.Fatalf("stage[%d] = %q, want %q", i, sd.Stage, wantOrder[i])
		}
		if sd.Errors != 0 {
			t.Errorf("stage %s errors = %d on a healthy run", sd.Stage, sd.Errors)
		}
	}
	for _, name := range wantOrder[:4] {
		for _, sd := range d.Stages {
			if sd.Stage == name && sd.Sites != testScale {
				t.Errorf("stage %s processed %d sites, want %d", name, sd.Sites, testScale)
			}
		}
	}
	if len(d.Errors) != 0 || d.ErrorsTruncated != 0 {
		t.Errorf("healthy run recorded errors: %+v", d.Errors)
	}
	if live := f.r.Stats(); live != d.Resolver {
		t.Errorf("live stats %+v != diagnostics snapshot %+v", live, d.Resolver)
	}
	if d.Resolver.Queries == 0 || d.Resolver.Hits != 0 || d.Resolver.Cached {
		t.Fatalf("resolver stats = %+v, want queries, no hits and no cache", d.Resolver)
	}
}

// slowCancelTransport delays every exchange and triggers the cancel func
// once enough queries have flowed, guaranteeing cancellation lands mid-run.
type slowCancelTransport struct {
	inner   resolver.Transport
	delay   time.Duration
	n       atomic.Int64
	after   int64
	cancel  context.CancelFunc
	stopped atomic.Bool
}

func (s *slowCancelTransport) Exchange(ctx context.Context, q *dnsmsg.Message) (*dnsmsg.Message, error) {
	if s.n.Add(1) == s.after {
		s.cancel()
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(s.delay):
	}
	return s.inner.Exchange(ctx, q)
}

// TestRunCancellationPromptNoLeaks cancels a 1K-site run mid-flight and
// requires Run to return ctx.Err() quickly, without leaking pool goroutines.
// The Makefile race target runs this under -race.
func TestRunCancellationPromptNoLeaks(t *testing.T) {
	u, err := ecosystem.Generate(ecosystem.Options{Scale: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	w := ecosystem.Materialize(u, ecosystem.Y2020)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &slowCancelTransport{
		inner:  resolver.ZoneDirect{Store: w.Zones},
		delay:  200 * time.Microsecond,
		after:  64,
		cancel: cancel,
	}
	before := runtime.NumGoroutine()
	start := time.Now()
	_, err = Run(ctx, w.Sites, Config{
		Resolver: resolver.New(tr),
		Certs:    w.Certs,
		Pages:    w,
		CDNMap:   CDNMap(w.CNAMEToCDN),
		Workers:  8,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after cancel = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("Run took %v to honor cancellation", elapsed)
	}
	// The pool goroutines must all have exited; give the runtime a moment.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: before=%d now=%d", before, runtime.NumGoroutine())
}

// BenchmarkMeasureRun benchmarks the full staged pipeline (all three passes)
// at scale 10K against the in-process world, with a cold resolver cache per
// iteration. No record is kept; a traced run of bench/'s paper-10k workload
// reports the same passes as measure.run_s.
func BenchmarkMeasureRun(b *testing.B) {
	u, err := ecosystem.Generate(ecosystem.Options{Scale: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	w := ecosystem.Materialize(u, ecosystem.Y2020)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), w.Sites, Config{
			Resolver: w.NewResolver(),
			Certs:    w.Certs,
			Pages:    w,
			CDNMap:   CDNMap(w.CNAMEToCDN),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Sites) != len(w.Sites) {
			b.Fatal("short run")
		}
	}
}
