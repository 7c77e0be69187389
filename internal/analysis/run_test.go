package analysis

import (
	"context"
	"strings"
	"testing"

	"depscope/internal/core"
	"depscope/internal/ecosystem"
	"depscope/internal/measure"
	"depscope/internal/resolver"
)

// TestExecuteProgressSerialized: the two snapshot goroutines report progress
// concurrently, and Execute promises to serialize the callback. The recorder
// below appends to a plain slice with no locking of its own — under -race
// this fails if Execute ever lets two calls overlap.
func TestExecuteProgressSerialized(t *testing.T) {
	var lines []string
	run, err := Execute(context.Background(), Options{
		Scale: 500,
		Seed:  11,
		Progress: func(format string, args ...any) {
			lines = append(lines, format)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Y2016 == nil || run.Y2020 == nil {
		t.Fatal("missing snapshot data")
	}
	// One generation line plus one line per measured snapshot.
	if len(lines) < 3 {
		t.Errorf("got %d progress lines, want >= 3: %q", len(lines), lines)
	}
	var measured int
	for _, l := range lines {
		if strings.Contains(l, "measured") {
			measured++
		}
	}
	if measured != 2 {
		t.Errorf("got %d measurement progress lines, want 2", measured)
	}
}

// TestExecuteNegativeWorkers: Options.Workers below 1 means GOMAXPROCS; the
// run must complete and produce graphs whose metrics engine works.
func TestExecuteNegativeWorkers(t *testing.T) {
	run, err := Execute(context.Background(), Options{Scale: 300, Seed: 3, Workers: -5})
	if err != nil {
		t.Fatal(err)
	}
	for _, sd := range []*SnapshotData{run.Y2016, run.Y2020} {
		if sd == nil || sd.Graph == nil {
			t.Fatal("missing snapshot graph")
		}
		stats := sd.Graph.TopProviders(core.DNS, core.AllIndirect(), false, 3)
		if len(stats) == 0 {
			t.Error("no DNS providers ranked")
		}
	}
}

// TestRenderErrorSummaryHitShare: the collect-policy footer gives a cache
// hit share only for a resolver that has a cache; an in-process run's
// resolver has none, so its line names the lookup count alone.
func TestRenderErrorSummaryHitShare(t *testing.T) {
	run := &Run{
		Y2016: &SnapshotData{Snapshot: ecosystem.Y2016, Results: &measure.Results{
			Diagnostics: measure.Diagnostics{Resolver: resolver.Stats{Queries: 40}},
		}},
		Y2020: &SnapshotData{Snapshot: ecosystem.Y2020, Results: &measure.Results{
			Diagnostics: measure.Diagnostics{Resolver: resolver.Stats{Queries: 40, Hits: 30, Cached: true}},
		}},
	}
	var b strings.Builder
	RenderErrorSummary(&b, run)
	out := b.String()
	for _, want := range []string{"2016: resolver 40 lookups\n", "2020: resolver 40 lookups, 75.0% cache hits\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("footer lacks %q:\n%s", want, out)
		}
	}
}
