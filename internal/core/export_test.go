package core

import (
	"sort"
	"strings"
	"testing"
)

// topProvidersRecursive is the seed per-provider ranking, the reference
// that equivalence tests and benchmarks hold the batched engine against.
func (g *Graph) topProvidersRecursive(svc Service, opts TraversalOpts, byImpact bool, n int) []ProviderStat {
	return g.topProviders(svc, byImpact, n, func(pname string) (int, int) {
		return len(g.ConcentrationSet(pname, opts)), len(g.ImpactSet(pname, opts))
	})
}

// RandomGraph exposes the property-test graph generator to the external
// core_test package.
func RandomGraph(seed int64) *Graph { return randomGraph(seed) }

// ScanCounts is the per-site scan RunCounts answered with before the
// provider→site rows: the same cascade, then every site's arrangements
// evaluated against the final provider states. It is the test oracle for
// RunCounts and is kept out of production code.
func (s *OutageSim) ScanCounts(targets []int32, o OutageOpts) (down, degraded int) {
	var sc SimScratch
	s.cascade(targets, o, &sc)
	for i := range s.g.Sites {
		worst := ProviderUp
		for _, a := range s.siteArrs[i] {
			if as := arrState(a, sc.state, o.JointFailures); as > worst {
				worst = as
			}
		}
		switch worst {
		case ProviderDown:
			down++
		case ProviderDegraded:
			degraded++
		}
	}
	return down, degraded
}

// RowForms counts the non-empty provider→site rows markSites ORs in from a
// dense bitset and those it walks entry by entry.
func (s *OutageSim) RowForms() (dense, sparse int) {
	for r, d := range s.dense {
		switch {
		case d != nil:
			dense++
		case len(s.siteRows.row(int32(r))) > 0:
			sparse++
		}
	}
	return dense, sparse
}

// ScanRun is the oracle for Run: it classifies every site and lists every
// non-Up provider by scanning the whole universe, where Run visits only the
// affected sites and the touched providers.
func (s *OutageSim) ScanRun(targets []string, o OutageOpts) *OutageResult {
	var sc SimScratch
	isTarget := make([]bool, len(s.e.names))
	var ids []int32
	for _, t := range targets {
		if id, ok := s.e.ids[t]; ok {
			isTarget[id] = true
			ids = append(ids, int32(id))
		}
	}
	s.cascade(ids, o, &sc)
	n := len(s.g.Sites)
	res := &OutageResult{
		Outcomes:          make([]SiteOutcome, n),
		Resilience:        make([]float64, n),
		Direct:            make([]bool, n),
		LostByService:     make(map[Service]int),
		DegradedByService: make(map[Service]int),
	}
	for i := range s.g.Sites {
		res.Resilience[i] = 1
		s.classify(i, sc.state, isTarget, o.JointFailures, res)
		if res.Outcomes[i] == SiteUnaffected {
			res.Unaffected++
		}
	}
	for id, st := range sc.state[:len(s.e.names)] {
		switch st {
		case ProviderDown:
			res.DownProviders = append(res.DownProviders, s.e.names[id])
		case ProviderDegraded:
			res.DegradedProviders = append(res.DegradedProviders, s.e.names[id])
		}
	}
	sort.Strings(res.DownProviders)
	sort.Strings(res.DegradedProviders)
	return res
}

func TestWriteDOT(t *testing.T) {
	g := paperGraph()
	var sb strings.Builder
	if err := g.WriteDOT(&sb, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"digraph dependencies",
		`"twitter.com" [shape=box]`,
		`"twitter.com" -> "Dyn"`,
		`"Fastly" -> "Dyn"`,
		`"Symantec" -> "Verisign DNS"`,
		"style=solid",  // critical edges
		"style=dashed", // redundant edges
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q\n%s", want, out)
		}
	}
	if !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Error("DOT not closed")
	}
}

func TestWriteDOTMaxSites(t *testing.T) {
	g := paperGraph()
	var sb strings.Builder
	if err := g.WriteDOT(&sb, 1); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sb.String(), "shape=box"); n != 1 {
		t.Errorf("maxSites=1 rendered %d site boxes", n)
	}
}

func TestRobustnessOf(t *testing.T) {
	g := paperGraph()

	// twitter: single service (DNS), critical on Dyn -> score 0.
	r, err := g.RobustnessOf("twitter.com")
	if err != nil {
		t.Fatal(err)
	}
	if r.Score != 0 {
		t.Errorf("twitter score = %v", r.Score)
	}
	if len(r.CriticalProviders) != 1 || r.CriticalProviders[0] != "Dyn" {
		t.Errorf("twitter critical providers = %v", r.CriticalProviders)
	}
	// Dyn's transitive impact is twitter+pinterest.
	if r.SharedFate != 2 {
		t.Errorf("twitter shared fate = %d, want 2", r.SharedFate)
	}

	// spotify: DNS redundant -> score 1, no critical providers.
	r, err = g.RobustnessOf("spotify.com")
	if err != nil {
		t.Fatal(err)
	}
	if r.Score != 1 || len(r.CriticalProviders) != 0 {
		t.Errorf("spotify robustness = %+v", r)
	}

	// pinterest: DNS private (safe), CDN critical on Fastly which is
	// critical on Dyn -> critical providers {Fastly, Dyn}, score 0.5.
	r, err = g.RobustnessOf("pinterest.com")
	if err != nil {
		t.Fatal(err)
	}
	if r.Score != 0.5 {
		t.Errorf("pinterest score = %v", r.Score)
	}
	if len(r.CriticalProviders) != 2 {
		t.Errorf("pinterest critical providers = %v", r.CriticalProviders)
	}

	// netflix: DNS redundant (safe), CA critical on Symantec -> Verisign.
	r, err = g.RobustnessOf("netflix.com")
	if err != nil {
		t.Fatal(err)
	}
	if r.Score != 0.5 {
		t.Errorf("netflix score = %v", r.Score)
	}
	has := func(p string) bool {
		for _, c := range r.CriticalProviders {
			if c == p {
				return true
			}
		}
		return false
	}
	if !has("Symantec") || !has("Verisign DNS") {
		t.Errorf("netflix critical providers = %v", r.CriticalProviders)
	}

	if _, err := g.RobustnessOf("nonexistent.com"); err == nil {
		t.Error("unknown site accepted")
	}
}

func TestRobustnessAll(t *testing.T) {
	g := paperGraph()
	d := g.RobustnessAll()
	// twitter and academia score 0; pinterest and netflix 0.5; spotify 1.
	if d.Zero != 2 || d.Low != 2 || d.Full != 1 || d.High != 0 {
		t.Errorf("distribution = %+v", d)
	}
}

// TestRobustnessDistributionAdd pins the bucket boundaries: 0, (0,0.5],
// (0.5,1) and 1.
func TestRobustnessDistributionAdd(t *testing.T) {
	var d RobustnessDistribution
	for _, score := range []float64{0, 0.25, 0.5, 0.5 + 1e-9, 0.75, 1} {
		d.Add(score)
	}
	if want := (RobustnessDistribution{Zero: 1, Low: 2, High: 2, Full: 1}); d != want {
		t.Errorf("distribution = %+v, want %+v", d, want)
	}
}
