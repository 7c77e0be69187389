package analysis

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// siteBreakdownGolden pins the JSON of every SiteBreakdown at scale 2000,
// both snapshots, seeds 1 and 2020 (hashed in that order, one JSON document
// per line). After an intentional view-shape change, rerun
//
//	go test ./internal/analysis -run TestSiteBreakdownGolden -v
//
// and pin the new hash the failure message prints.
const siteBreakdownGolden = "cd0096eccedbca757d9856d043d63e46e08fbabc7971aa5535ac16e4e94710cf"

// TestSiteBreakdownGolden pins the per-site query view, including its
// transitive critical-provider closure, and holds that closure's size equal
// to the §8.1 indirect critical-dependency count of the same site.
func TestSiteBreakdownGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("measures two 2K worlds")
	}
	h := sha256.New()
	for _, seed := range []int64{1, 2020} {
		run, err := Execute(context.Background(), Options{Scale: 2000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, snap := range []string{"2016", "2020"} {
			g, err := SnapshotGraph(run, snap)
			if err != nil {
				t.Fatal(err)
			}
			perSite := g.CriticalDepsPerSite(true)
			names, err := SiteNames(run, snap)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				view, err := SiteBreakdown(run, snap, name)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := len(view.CriticalProviders), perSite[name]; got != want {
					t.Errorf("seed %d %s %s: %d critical providers, CriticalDepsPerSite(true) = %d",
						seed, snap, name, got, want)
				}
				b, err := json.Marshal(view)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(b)
				h.Write([]byte{'\n'})
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != siteBreakdownGolden {
		t.Errorf("SiteBreakdown hash %s, want pinned %s", got, siteBreakdownGolden)
	}
}
