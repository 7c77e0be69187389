package analysis

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"depscope/internal/chain"
	"depscope/internal/core"
	"depscope/internal/ecosystem"
	"depscope/internal/incident"
)

// chainRun executes a small chains-on 2020 run with the given worker count.
func chainRun(t *testing.T, workers int, cfg chain.Config) *Run {
	t.Helper()
	run, err := Execute(context.Background(), Options{
		Scale:     300,
		Seed:      2020,
		Workers:   workers,
		Chains:    &cfg,
		Snapshots: []ecosystem.Snapshot{ecosystem.Y2020},
	})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestChainsDegeneracy pins the MaxDepth-1 property: a config that only
// allows depth-1 chains is the disabled pipeline, so the run is identical to
// a chains-off run — graphs, results, and (by construction) the implicit
// C_p/I_p traversal collapses onto the direct one exactly.
func TestChainsDegeneracy(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	off := chainRun(t, 4, chain.Config{MaxDepth: 1})
	baseline, err := Execute(context.Background(), Options{
		Scale:     300,
		Seed:      2020,
		Workers:   4,
		Snapshots: []ecosystem.Snapshot{ecosystem.Y2020},
	})
	if err != nil {
		t.Fatal(err)
	}

	offJSON, _ := json.Marshal(off.Y2020.Results)
	baseJSON, _ := json.Marshal(baseline.Y2020.Results)
	if !bytes.Equal(offJSON, baseJSON) {
		t.Fatal("MaxDepth=1 run's results differ from a chains-off run")
	}

	// Implicit == direct, exactly, for every provider.
	eng := off.Y2020.Graph.Metrics()
	dc, di := eng.Counts(core.AllIndirect())
	ic, ii := eng.Counts(core.AllImplicit())
	if !reflect.DeepEqual(dc, ic) {
		t.Error("implicit C_p != direct C_p under MaxDepth=1")
	}
	if !reflect.DeepEqual(di, ii) {
		t.Error("implicit I_p != direct I_p under MaxDepth=1")
	}

	// And the report renders no chain section at all.
	var buf bytes.Buffer
	RenderChains(&buf, off)
	if buf.Len() != 0 {
		t.Errorf("RenderChains on a chains-off run printed:\n%s", buf.String())
	}
}

// TestChainsPreserveDirectMetrics: enabling chains adds edges and vendor
// nodes but must not move any direct (paper-semantics) number.
func TestChainsPreserveDirectMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	on := chainRun(t, 4, chain.Default())
	baseline, err := Execute(context.Background(), Options{
		Scale:     300,
		Seed:      2020,
		Workers:   4,
		Snapshots: []ecosystem.Snapshot{ecosystem.Y2020},
	})
	if err != nil {
		t.Fatal(err)
	}

	engOn := on.Y2020.Graph.Metrics()
	engOff := baseline.Y2020.Graph.Metrics()
	dcOn, diOn := engOn.Counts(core.AllIndirect())
	dcOff, diOff := engOff.Counts(core.AllIndirect())
	// The chains-on graph has extra Resource providers; restrict the
	// comparison to the baseline's provider set.
	for name, v := range dcOff {
		if dcOn[name] != v {
			t.Errorf("direct C_p(%s) moved: off %d, on %d", name, v, dcOn[name])
		}
	}
	for name, v := range diOff {
		if diOn[name] != v {
			t.Errorf("direct I_p(%s) moved: off %d, on %d", name, v, diOn[name])
		}
	}

	s := ChainSummary(on, 5)
	if s == nil || s.SitesWithChains == 0 || s.Edges == 0 {
		t.Fatalf("chains-on run has no chain data: %+v", s)
	}
	if s.MaxDepth < 2 {
		t.Errorf("default config produced no multi-level chains: max depth %d", s.MaxDepth)
	}

	var buf bytes.Buffer
	RenderChains(&buf, on)
	out := buf.String()
	if !strings.Contains(out, "Implicit trust via resource chains") {
		t.Errorf("report section missing:\n%s", out)
	}
	if !strings.Contains(out, "direct") || !strings.Contains(out, "implicit") {
		t.Errorf("direct-vs-implicit comparison missing:\n%s", out)
	}
}

// TestChainsWorkerDeterminism: the implicit metrics and the full chain
// summary are identical no matter how the measurement work is sharded.
func TestChainsWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	one := chainRun(t, 1, chain.Default())
	eight := chainRun(t, 8, chain.Default())

	s1 := ChainSummary(one, 10)
	s8 := ChainSummary(eight, 10)
	if !reflect.DeepEqual(s1, s8) {
		j1, _ := json.MarshalIndent(s1, "", " ")
		j8, _ := json.MarshalIndent(s8, "", " ")
		t.Fatalf("chain summary differs across worker counts:\nworkers=1: %s\nworkers=8: %s", j1, j8)
	}

	r1, _ := json.Marshal(one.Y2020.Results)
	r8, _ := json.Marshal(eight.Y2020.Results)
	if !bytes.Equal(r1, r8) {
		t.Fatal("measurement results differ across worker counts")
	}
}

// TestAnalyticsCompromisePreset is the acceptance scenario: the preset picks
// a vendor no page loads directly (min inclusion depth >= 2 everywhere) and
// its outage still takes sites down — implicit trust the direct measurement
// cannot see.
func TestAnalyticsCompromisePreset(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	run := chainRun(t, 4, chain.Default())
	g := run.Y2020.Graph

	sc, ok := incident.Preset("analytics-compromise")
	if !ok {
		t.Fatal("analytics-compromise preset missing")
	}
	rep, err := incident.Simulate(context.Background(), g, sc)
	if err != nil {
		t.Fatal(err)
	}

	final := rep.Stages[len(rep.Stages)-1]
	if len(final.Targets) != 1 {
		t.Fatalf("targets = %v, want exactly one vendor", final.Targets)
	}
	vendor := final.Targets[0]

	// The failed provider must be a chain vendor included only at depth >= 2:
	// no site's resource tree reaches it as a direct (depth-1) inclusion.
	minDepth := 0
	seen := false
	for _, site := range g.Sites {
		for _, e := range site.Chains {
			if e.Provider != vendor {
				continue
			}
			if !seen || e.Depth < minDepth {
				minDepth = e.Depth
			}
			seen = true
		}
	}
	if !seen {
		t.Fatalf("target %s has no chain edges", vendor)
	}
	if minDepth < 2 {
		t.Fatalf("target %s is included at depth %d; the preset must pick a >=2-level vendor", vendor, minDepth)
	}

	if final.Down == 0 {
		t.Fatalf("vendor %s outage took nothing down", vendor)
	}
	if rep.Validation == nil || !rep.Validation.Match {
		t.Fatalf("validation failed: %+v", rep.Validation)
	}

	// The same scenario against a chains-off graph is a configuration error,
	// not a silent no-op.
	baseline, err := Execute(context.Background(), Options{
		Scale:     300,
		Seed:      2020,
		Workers:   4,
		Snapshots: []ecosystem.Snapshot{ecosystem.Y2020},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := incident.Simulate(context.Background(), baseline.Y2020.Graph, sc); err == nil {
		t.Error("analytics-compromise against a chains-off graph should fail to resolve targets")
	}
}
