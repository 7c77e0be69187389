package analysis

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"depscope/internal/chain"
	"depscope/internal/core"
	"depscope/internal/ecosystem"
	"depscope/internal/measure"
	"depscope/internal/membudget"
)

// residentRun is the test-only reference driver Execute is pinned against:
// each snapshot's world is materialized whole (every page resident), measured
// by measure.Run in one batch and scored on a pointer graph built directly
// from the results, with no columnar graph.
func residentRun(t *testing.T, opts Options) *Run {
	t.Helper()
	u, err := ecosystem.Generate(ecosystem.Options{Scale: opts.Scale, Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	run := &Run{Scale: opts.Scale, Universe: u}
	for _, snap := range []ecosystem.Snapshot{ecosystem.Y2016, ecosystem.Y2020} {
		w := ecosystem.Materialize(u, snap)
		if opts.Chains != nil && opts.Chains.Enabled() {
			ecosystem.MaterializeChains(u, w, *opts.Chains)
		}
		res, err := measure.Run(context.Background(), w.Sites, measure.Config{
			Resolver: w.NewResolver(),
			Certs:    w.Certs,
			Pages:    w,
			CDNMap:   measure.CDNMap(w.CNAMEToCDN),
			Chains:   opts.Chains,
		})
		if err != nil {
			t.Fatal(err)
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

// reportHash is the hex SHA-256 of the run's rendered Report.
func reportHash(run *Run) string {
	var b strings.Builder
	Report(&b, run)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// defaultChains is the chain configuration of the chain-enabled test runs.
var defaultChains = chain.Default()

// reportCases are the pinned Execute runs at scale 2000: both seeds, with and
// without chains, the second with a batch size that does not divide the
// scale. golden is the SHA-256 of the run's report, recorded before every run
// streamed (when seed 1 still took a resident path).
var reportCases = []struct {
	name   string
	opts   Options
	golden string
}{
	{"seed1", Options{Scale: 2000, Seed: 1},
		"2a29eda3f3a3b887d58b46aecafe4b3f314344a778b124224accbbd8205f9f35"},
	{"seed2020-chains-batch700", Options{Scale: 2000, Seed: 2020, BatchSize: 700, Chains: &defaultChains},
		"87389fb6c915489617b45f1d51d24c13ca4ce7d69687db4a92eee0557563cbc5"},
}

// TestCompactExecuteReportByteIdentical is the driver's pinning property at
// the report level: Execute's streamed run renders the exact same report
// bytes as the resident reference, releases the 2016 world, and leaves no
// 2020 page resident.
func TestCompactExecuteReportByteIdentical(t *testing.T) {
	for _, tc := range reportCases {
		t.Run(tc.name, func(t *testing.T) {
			run, err := Execute(context.Background(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := reportHash(run), reportHash(residentRun(t, tc.opts)); got != want {
				t.Errorf("Execute report %s differs from the resident reference %s", got, want)
			}
			if run.Y2016.World != nil {
				t.Error("2016 world still held after the run")
			}
			if n := len(run.Y2020.World.Pages); n != 0 {
				t.Errorf("2020: %d pages left resident after the run", n)
			}
		})
	}
}

// TestExecuteReportGolden pins the same runs' report bytes to the hashes
// recorded before the resident driver was removed.
func TestExecuteReportGolden(t *testing.T) {
	for _, tc := range reportCases {
		run, err := Execute(context.Background(), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := reportHash(run); got != tc.golden {
			t.Errorf("%s: report hash %s, want %s", tc.name, got, tc.golden)
		}
	}
}

// ablationGolden pins RenderAblation's output at scale 2000 for seeds 1 and
// 2020, hashed when ablations still re-measured the run's own resident world.
var ablationGolden = map[int64]string{
	1:    "afeea64f6ae896d051f081de16b85df456136a4bff5c02e717b1c089bae89bf0",
	2020: "f28a78e418453569241eef8b254da0879220d38454fb3bd54f222288db16e66d",
}

// TestAblationGolden: the ablation experiments re-measure the run's own 2020
// world, whose landing pages are released, so they run on any Execute run —
// chains and a memory budget included — and print the same bytes.
func TestAblationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("re-measures 2K worlds twenty times")
	}
	for seed, want := range ablationGolden {
		for _, opts := range []Options{
			{Scale: 2000, Seed: seed},
			{Scale: 2000, Seed: seed, Chains: &defaultChains, MemBudget: 4 * membudget.GiB},
		} {
			run, err := Execute(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := RenderAblation(&b, run); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(b.String()))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("seed %d chains=%v budget=%d: ablation hash %s, want %s",
					seed, opts.Chains != nil, opts.MemBudget, got, want)
			}
		}
	}
}

// TestCompactGraphMatchesPointerOnMeasuredRun pins the columnar metrics
// engine against the pointer graph on real measured output (the core
// property tests cover random graphs): C_p/I_p for every provider under
// every report traversal, plus the site-class counts.
func TestCompactGraphMatchesPointerOnMeasuredRun(t *testing.T) {
	run, err := Execute(context.Background(), Options{Scale: 2000, Seed: 2020, Chains: &defaultChains})
	if err != nil {
		t.Fatal(err)
	}
	for _, sd := range []*SnapshotData{run.Y2016, run.Y2020} {
		g, cg := sd.Graph, BuildCompactGraph(sd.Results)
		eng := cg.Metrics()
		for _, opts := range []core.TraversalOpts{core.DirectOnly(), core.AllIndirect(), core.AllImplicit()} {
			for name := range g.Providers {
				if got, want := eng.Concentration(name, opts), len(g.ConcentrationSet(name, opts)); got != want {
					t.Fatalf("%s via %v: C(%s) = %d, want %d", sd.Snapshot, opts.ViaProviders, name, got, want)
				}
				if got, want := eng.Impact(name, opts), len(g.ImpactSet(name, opts)); got != want {
					t.Fatalf("%s via %v: I(%s) = %d, want %d", sd.Snapshot, opts.ViaProviders, name, got, want)
				}
			}
		}
		for _, svc := range core.Services {
			want := make(map[core.DepClass]int)
			for _, s := range g.Sites {
				if d, ok := s.Deps[svc]; ok {
					want[d.Class]++
				}
			}
			got := cg.ClassCounts(svc)
			for cls, n := range want {
				if got[cls] != n {
					t.Fatalf("%s: ClassCounts(%s)[%v] = %d, want %d", sd.Snapshot, svc, cls, got[cls], n)
				}
			}
		}
	}
}

// TestCompactMemBudgetEnforced: an impossibly small budget fails fast with
// the greppable budget error, and a workable budget completes.
func TestCompactMemBudgetEnforced(t *testing.T) {
	_, err := Execute(context.Background(), Options{
		Scale: 2000, Seed: 1, MemBudget: 1, // one byte: over budget at the first batch boundary
	})
	if err == nil || !strings.Contains(err.Error(), "memory budget exceeded") {
		t.Fatalf("want budget error, got %v", err)
	}
	var be *membudget.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("budget failure is not a *membudget.BudgetError: %v", err)
	}

	if _, err := Execute(context.Background(), Options{
		Scale: 1000, Seed: 1, MemBudget: 64 * membudget.GiB,
	}); err != nil {
		t.Fatal(err)
	}
}
