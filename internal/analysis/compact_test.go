package analysis

import (
	"context"
	"errors"
	"strings"
	"testing"

	"depscope/internal/chain"
	"depscope/internal/core"
	"depscope/internal/membudget"
)

// execPair runs the same experiment down the default and the compact path.
func execPair(t *testing.T, opts Options) (*Run, *Run) {
	t.Helper()
	resident := opts
	resident.BatchSize = 0 // a batch size applies only to the compact run
	normal, err := Execute(context.Background(), resident)
	if err != nil {
		t.Fatal(err)
	}
	opts.Compact = true
	compact, err := Execute(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return normal, compact
}

// TestCompactExecuteReportByteIdentical is the tentpole pinning property at
// the report level: the streamed/columnar path must render the exact same
// report bytes as the default path — for the pinned seeds, with and without
// chains, across batch sizes that do not divide the scale.
func TestCompactExecuteReportByteIdentical(t *testing.T) {
	chains := chain.Default()
	for _, tc := range []struct {
		name   string
		seed   int64
		batch  int
		chains *chain.Config
	}{
		{"seed1", 1, 0, nil},
		{"seed2020-chains-batch700", 2020, 700, &chains},
	} {
		t.Run(tc.name, func(t *testing.T) {
			normal, compact := execPair(t, Options{
				Scale: 2000, Seed: tc.seed, BatchSize: tc.batch, Chains: tc.chains,
			})
			var nb, cb strings.Builder
			Report(&nb, normal)
			Report(&cb, compact)
			if nb.String() != cb.String() {
				t.Error("compact report differs from default-path report")
			}
			for _, sd := range []*SnapshotData{compact.Y2016, compact.Y2020} {
				if sd.Compact == nil {
					t.Fatalf("%s: compact run carries no CompactGraph", sd.Snapshot)
				}
				if !sd.World.Streamed {
					t.Errorf("%s: compact world not marked Streamed", sd.Snapshot)
				}
				if len(sd.World.Pages) != 0 {
					t.Errorf("%s: %d pages left resident after streamed run", sd.Snapshot, len(sd.World.Pages))
				}
			}
			for _, sd := range []*SnapshotData{normal.Y2016, normal.Y2020} {
				if sd.Compact != nil {
					t.Errorf("%s: default run carries a CompactGraph", sd.Snapshot)
				}
			}
		})
	}
}

// TestCompactGraphMatchesPointerOnMeasuredRun pins the columnar metrics
// engine against the pointer graph on real measured output (the core
// property tests cover random graphs): C_p/I_p for every provider under
// every report traversal, plus the site-class counts.
func TestCompactGraphMatchesPointerOnMeasuredRun(t *testing.T) {
	chains := chain.Default()
	_, compact := execPair(t, Options{Scale: 2000, Seed: 2020, Chains: &chains})
	for _, sd := range []*SnapshotData{compact.Y2016, compact.Y2020} {
		g, cg := sd.Graph, sd.Compact
		for _, opts := range []core.TraversalOpts{core.DirectOnly(), core.AllIndirect(), core.AllImplicit()} {
			for name := range g.Providers {
				if got, want := cg.Concentration(name, opts), len(g.ConcentrationSet(name, opts)); got != want {
					t.Fatalf("%s via %v: C(%s) = %d, want %d", sd.Snapshot, opts.ViaProviders, name, got, want)
				}
				if got, want := cg.Impact(name, opts), len(g.ImpactSet(name, opts)); got != want {
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

// TestCompactRejectsCheckpointing: the option combinations that cannot work
// fail fast with a clear error.
func TestCompactRejectsCheckpointing(t *testing.T) {
	_, err := Execute(context.Background(), Options{
		Scale: 10, Seed: 1, Compact: true, CheckpointPath: "/tmp/cp",
	})
	if !errors.Is(err, ErrStreamedWorld) {
		t.Fatalf("want ErrStreamedWorld, got %v", err)
	}
}

// TestBatchSizeRequiresCompact: a batch size on a resident run is refused
// instead of silently ignored; MemBudget still implies Compact.
func TestBatchSizeRequiresCompact(t *testing.T) {
	_, err := Execute(context.Background(), Options{Scale: 10, Seed: 1, BatchSize: 100})
	if err == nil || !strings.Contains(err.Error(), "BatchSize") {
		t.Fatalf("want BatchSize rejection, got %v", err)
	}
	run, err := Execute(context.Background(), Options{
		Scale: 50, Seed: 1, BatchSize: 16, MemBudget: 64 * membudget.GiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Y2020.Compact == nil {
		t.Error("MemBudget with BatchSize did not run the compact path")
	}
}

// TestCompactMemBudgetEnforced: an impossibly small budget fails fast with
// the greppable budget error, and a workable budget implies Compact.
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

	run, err := Execute(context.Background(), Options{
		Scale: 1000, Seed: 1, MemBudget: 64 * membudget.GiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Y2020.Compact == nil {
		t.Error("MemBudget did not imply the compact path")
	}
}

// TestAblationsRejectStreamedWorlds: re-measuring consumers fail with a
// clear error instead of silently measuring a page-less world.
func TestAblationsRejectStreamedWorlds(t *testing.T) {
	run, err := Execute(context.Background(), Options{Scale: 300, Seed: 1, Compact: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := HeuristicAblation(context.Background(), run); !errors.Is(err, ErrStreamedWorld) {
		t.Fatalf("HeuristicAblation on streamed world: %v", err)
	}
	if _, err := ThresholdSweep(context.Background(), run, []int{50}); !errors.Is(err, ErrStreamedWorld) {
		t.Fatalf("ThresholdSweep on streamed world: %v", err)
	}
}
