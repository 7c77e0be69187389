//go:build !race

package depscope

import (
	"context"
	"runtime"
	"testing"

	"depscope/internal/analysis"
	"depscope/internal/core"
	"depscope/internal/ecosystem"
)

// maxEngineGrowth bounds how the metrics engine's retained bytes per site
// may grow from 5K to 20K sites. An engine whose memory is linear in the
// sites holds the ratio near 1: sets sized by their members measure 0.82
// (241 → 198 bytes/site, the direct-user table included). One that grows
// with sites × providers does not: a bitset over every site for every
// component measured 2.20 (765 → 1,687 bytes/site).
const maxEngineGrowth = 1.5

// reportTraversals are the four traversals a depscope report fills:
// direct, all-indirect, and indirect via CA (Figures 7 and 8) and via CDN
// (Figure 9).
var reportTraversals = []core.TraversalOpts{
	core.DirectOnly(),
	core.AllIndirect(),
	{ViaProviders: []core.Service{core.CA}},
	{ViaProviders: []core.Service{core.CDN}},
}

// engineBytesPerSite measures the 2020 snapshot of a scale-site world
// (seed 2020) and returns the live heap a fresh metrics engine over its
// graph retains per site once the report's traversals are filled.
func engineBytesPerSite(t *testing.T, scale int) float64 {
	t.Helper()
	run, err := analysis.Execute(context.Background(), analysis.Options{
		Scale:     scale,
		Seed:      2020,
		Snapshots: []ecosystem.Snapshot{ecosystem.Y2020},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := run.Y2020.Graph
	e, bytes := retainedBytes(func() any {
		e := core.NewMetricsEngine(g, 0)
		for _, opts := range reportTraversals {
			// Any lookup fills the traversal's C_p and I_p for every provider.
			e.Concentration("", opts)
		}
		return e
	})
	runtime.KeepAlive(e)
	return float64(bytes) / float64(len(g.Sites))
}

// TestGateEngineBytesPerSite is the metrics engine's memory gate, run by
// `make bench-gates`: its retained bytes per site at 20K sites must be
// within maxEngineGrowth of those at 5K. It reads HeapAlloc, so it must
// not run in parallel with other tests.
func TestGateEngineBytesPerSite(t *testing.T) {
	if testing.Short() {
		t.Skip("measures 5K- and 20K-site worlds")
	}
	small := engineBytesPerSite(t, 5000)
	large := engineBytesPerSite(t, 20000)
	if small == 0 || large == 0 {
		t.Fatalf("no engine bytes measured (5K %.0f, 20K %.0f bytes/site)", small, large)
	}
	t.Logf("metrics engine: %.0f bytes/site at 5K, %.0f at 20K (%.2fx)", small, large, large/small)
	if large/small > maxEngineGrowth {
		t.Errorf("engine bytes/site grew %.2fx from 5K to 20K sites, above the %.1fx bound", large/small, maxEngineGrowth)
	}
}
