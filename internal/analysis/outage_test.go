package analysis

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"
	"sync"
	"testing"

	"depscope/internal/core"
)

// The what-if goldens hash rendered reports at scale 2000 for seeds 1 and
// 2020, in that order. After an intentional rendering change, rerun
//
//	go test ./internal/analysis -run 'TestOutageGolden|TestRobustnessGolden' -v
//
// and pin the new hash the failure message prints.
const (
	outageGolden     = "9c3881deb17513c94286ea8fc879131b5135fde51ffea021ff5c94df2a6e52e3"
	robustnessGolden = "dd515285e171fd6da05ffc10c6e3a7fe46db9cc478fad691c5cc8181430cf763"
)

var (
	runs2KMu sync.Mutex
	runs2K   = map[int64]*Run{}
)

// run2K measures (once per seed) the scale-2000 world the goldens hash.
func run2K(t *testing.T, seed int64) *Run {
	t.Helper()
	runs2KMu.Lock()
	defer runs2KMu.Unlock()
	if run, ok := runs2K[seed]; ok {
		return run
	}
	run, err := Execute(context.Background(), Options{Scale: 2000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	runs2K[seed] = run
	return run
}

// TestOutageGolden pins -outage for the Dyn provider and DNS Made Easy.
func TestOutageGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("measures two 2K worlds")
	}
	var sb strings.Builder
	for _, seed := range []int64{1, 2020} {
		run := run2K(t, seed)
		for _, p := range []string{"dynect.net", "dnsmadeeasy.com"} {
			if err := RenderOutage(&sb, run, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	h := sha256.Sum256([]byte(sb.String()))
	if got := hex.EncodeToString(h[:]); got != outageGolden {
		t.Errorf("outage hash %s, want pinned %s\n%s", got, outageGolden, sb.String())
	}
}

// TestRobustnessGolden pins -experiment robustness.
func TestRobustnessGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("measures two 2K worlds")
	}
	var sb strings.Builder
	for _, seed := range []int64{1, 2020} {
		RenderRobustness(&sb, run2K(t, seed))
	}
	h := sha256.Sum256([]byte(sb.String()))
	if got := hex.EncodeToString(h[:]); got != robustnessGolden {
		t.Errorf("robustness hash %s, want pinned %s\n%s", got, robustnessGolden, sb.String())
	}
}

// TestOutageMatchesImpactSets holds the simulator-backed outage report to
// the §2.2 definition: for the top providers of every service, Direct and
// Transitive are |I_p| under DirectOnly and AllIndirect, and SampleSites
// are the ten best-ranked members of the transitive I_p.
func TestOutageMatchesImpactSets(t *testing.T) {
	run := getRun(t)
	g := run.Y2020.Graph
	for _, svc := range core.Services {
		for _, st := range g.TopProviders(svc, core.AllIndirect(), true, 5) {
			rep := Outage(run, st.Name)
			if want := len(g.ImpactSet(st.Name, core.DirectOnly())); rep.Direct != want {
				t.Errorf("%s: Direct = %d, |I_p| direct = %d", st.Name, rep.Direct, want)
			}
			imp := g.ImpactSet(st.Name, core.AllIndirect())
			if rep.Transitive != len(imp) {
				t.Errorf("%s: Transitive = %d, |I_p| = %d", st.Name, rep.Transitive, len(imp))
			}
			var members []*core.Site
			for _, s := range g.Sites {
				if imp[s.Name] {
					members = append(members, s)
				}
			}
			sort.Slice(members, func(i, j int) bool { return members[i].Rank < members[j].Rank })
			var want []string
			for i := 0; i < len(members) && i < 10; i++ {
				want = append(want, members[i].Name)
			}
			if strings.Join(rep.SampleSites, " ") != strings.Join(want, " ") {
				t.Errorf("%s: SampleSites = %v, want %v", st.Name, rep.SampleSites, want)
			}
		}
	}
}

// dotGolden hashes the DOT rendering of the scale-2000, seed-2020 graph.
const dotGolden = "02554952705895f2d3cf85e2ff72f038bb8f4e63206ee4524399651035f725a0"

// TestWriteDOTGolden pins depscope -dot: three renders of one 2K graph (the
// 200 sites the CLI writes) are byte-identical, and their hash is pinned.
func TestWriteDOTGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("measures a 2K world")
	}
	run := run2K(t, 2020)
	var first string
	for i := 0; i < 3; i++ {
		var sb strings.Builder
		if err := WriteDOT(&sb, run, 200); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = sb.String()
		} else if sb.String() != first {
			t.Fatalf("render %d differs from render 0", i)
		}
	}
	h := sha256.Sum256([]byte(first))
	if got := hex.EncodeToString(h[:]); got != dotGolden {
		t.Errorf("DOT hash %s, want pinned %s", got, dotGolden)
	}
}
