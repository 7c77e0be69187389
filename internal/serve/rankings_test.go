package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"depscope/internal/analysis"
	"depscope/internal/chain"
	"depscope/internal/core"
)

// executeManager builds a Manager over a fresh Execute run at 2K sites
// (seed 2020) and returns it with its first published snapshot.
func executeManager(t *testing.T, chains *chain.Config) (*Manager, *Snapshot) {
	t.Helper()
	run, err := analysis.Execute(context.Background(), analysis.Options{Scale: 2000, Seed: 2020, Chains: chains})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(context.Background(), func(context.Context) (*analysis.Run, error) { return run, nil })
	snap, err := m.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return m, snap
}

// firstSwap is a deterministic single-site swap on g that reads no metric:
// the best-ranked site with a single-third DNS provider moves to the DNS
// provider of the next such site using a different one.
func firstSwap(t *testing.T, g *core.Graph) core.Delta {
	t.Helper()
	var site, from string
	for _, s := range g.Sites {
		d, ok := s.Deps[core.DNS]
		if !ok || !d.Class.Critical() {
			continue
		}
		if site == "" {
			site, from = s.Name, d.Providers[0]
			continue
		}
		if d.Providers[0] != from {
			return core.Delta{Ops: []core.Op{
				{Kind: core.OpSwap, Name: site, Service: core.DNS, From: from, To: d.Providers[0]},
			}}
		}
	}
	t.Fatal("no two sites with distinct single-third DNS providers")
	return core.Delta{}
}

// rankingsHash digests the six RankedProviders lists (DNS/CDN/CA × by
// concentration/by impact) of both measured snapshots of run.
func rankingsHash(t *testing.T, run *analysis.Run) string {
	t.Helper()
	h := sha256.New()
	for _, snap := range []string{"2016", "2020"} {
		for _, svc := range core.Services {
			for _, byImpact := range []bool{false, true} {
				stats, err := analysis.RankedProviders(run, snap, svc, byImpact)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s %s %v\n", snap, svc, byImpact)
				for _, st := range stats {
					fmt.Fprintf(h, "%s %s %d %d\n", st.Name, st.Service, st.Concentration, st.Impact)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRankingsGolden pins the provider rankings /v1/providers serves for an
// Execute-built snapshot, chains off and on, and for the snapshot one swap
// delta later — whichever engine a snapshot's history leaves it ranking
// from, the bytes must not move.
func TestRankingsGolden(t *testing.T) {
	chains := chain.Default()
	for _, tc := range []struct {
		name        string
		chains      *chain.Config
		built, swap string
	}{
		// AllIndirect does not traverse resource vendors, so chains leave
		// these rankings unchanged.
		{"chains-off", nil,
			"e70c09cfccd06e939e3181567ec74e1b04c888eab173b371d3739ab0bbc6e05e",
			"431f3d120260932111ff50fa12e65af45662466dd2e0e0fce7c8a1b55b55b736"},
		{"chains-on", &chains,
			"e70c09cfccd06e939e3181567ec74e1b04c888eab173b371d3739ab0bbc6e05e",
			"431f3d120260932111ff50fa12e65af45662466dd2e0e0fce7c8a1b55b55b736"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, snap := executeManager(t, tc.chains)
			if got := rankingsHash(t, snap.Run); got != tc.built {
				t.Errorf("built snapshot rankings sha256 = %s, want %s", got, tc.built)
			}
			next, err := m.ApplyDelta("2020", firstSwap(t, snap.Run.Y2020.Graph), snap.Version)
			if err != nil {
				t.Fatal(err)
			}
			if got := rankingsHash(t, next.Run); got != tc.swap {
				t.Errorf("post-delta rankings sha256 = %s, want %s", got, tc.swap)
			}
		})
	}
}

// TestFirstDeltaAfterExecutePatches: publishing an Execute-built snapshot
// warms the metrics engine the graph carries across deltas, so the very
// first delta patches cached entries instead of rebuilding the engine.
func TestFirstDeltaAfterExecutePatches(t *testing.T) {
	m, snap := executeManager(t, nil)
	next, err := m.ApplyDelta("2020", firstSwap(t, snap.Run.Y2020.Graph), snap.Version)
	if err != nil {
		t.Fatal(err)
	}
	if st := next.delta.Stats; st.Rebuilt || st.PatchedEntries < 1 {
		t.Fatalf("first delta after Execute: rebuilt=%v patched=%d, want a patch", st.Rebuilt, st.PatchedEntries)
	}
}
