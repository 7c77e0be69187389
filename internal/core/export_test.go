package core

import (
	"fmt"
	"io"
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// concentrationSetRecursive is the seed recursive walk of the §2.2 C_p
// formula: the oracle the metrics engine's counts, rankings and site sets
// are held against, kept out of production code.
func (g *Graph) concentrationSetRecursive(p string, opts TraversalOpts) map[string]bool {
	out := make(map[string]bool)
	g.gather(p, opts, false, out, map[string]bool{p: true})
	return out
}

// impactSetRecursive is the seed recursive walk of the §2.2 I_p formula.
func (g *Graph) impactSetRecursive(p string, opts TraversalOpts) map[string]bool {
	out := make(map[string]bool)
	g.gather(p, opts, true, out, map[string]bool{p: true})
	return out
}

// gather unions D^p_w (or E^p_w) with the recursion over providers using p.
// visited implements the \{p} exclusion of the formulas, generalized to the
// whole recursion path so provider cycles terminate. Direct users come from
// a scan of Sites and dependants from a scan of Providers, never from the
// metrics engine's table, so the oracle stays independent of the engine.
func (g *Graph) gather(p string, opts TraversalOpts, critical bool, out map[string]bool, visited map[string]bool) {
	for _, s := range g.Sites {
		for _, d := range s.Deps {
			if d.Class.UsesThird() && (!critical || d.Class.Critical()) && slices.Contains(d.Providers, p) {
				out[s.Name] = true
			}
		}
		for _, infra := range s.PrivateInfra {
			if slices.Contains(infra, p) {
				out[s.Name] = true
			}
		}
		for _, e := range s.Chains {
			if e.Provider == p {
				out[s.Name] = true
			}
		}
	}
	for _, k := range g.Providers {
		if visited[k.Name] || !opts.allows(k.Service) {
			continue
		}
		// Does k depend on p in the required (critical) way?
		usesP := false
		for _, d := range k.Deps {
			if d.Class.UsesThird() && (!critical || d.Class.Critical()) && slices.Contains(d.Providers, p) {
				usesP = true
			}
		}
		if !usesP {
			continue
		}
		visited[k.Name] = true
		g.gather(k.Name, opts, critical, out, visited)
	}
}

// topProvidersRecursive is the seed per-provider ranking, the reference
// that equivalence tests and benchmarks hold the batched engine against.
func (g *Graph) topProvidersRecursive(svc Service, opts TraversalOpts, byImpact bool, n int) []ProviderStat {
	return g.topProviders(svc, byImpact, n, func(pname string) (int, int) {
		return len(g.concentrationSetRecursive(pname, opts)), len(g.impactSetRecursive(pname, opts))
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
	for i := 0; i < s.nSites(); i++ {
		worst := ProviderUp
		for _, a := range s.sites.row(i) {
			if as := arrState(a, s.sites.provs(a), sc.state, o.JointFailures); as > worst {
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

// EngineSiteShifts counts the sites whose metrics-engine site id differs
// from their Graph.Sites index.
func (s *OutageSim) EngineSiteShifts() int {
	n := 0
	for i, id := range s.engineSite {
		if int(id) != i {
			n++
		}
	}
	return n
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
	n := s.nSites()
	res := &OutageResult{
		Outcomes:          make([]SiteOutcome, n),
		Resilience:        make([]float64, n),
		Direct:            make([]bool, n),
		LostByService:     make(map[Service]int),
		DegradedByService: make(map[Service]int),
	}
	for i := 0; i < n; i++ {
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

// walkAll is the closure gate of the site-side critical walks in the
// oracle below: it continues through providers of every service.
var walkAll = AllImplicit()

// criticalSet is the pointer-map walk the arrangement table's critWalk
// replaced: the critical closures of the providers of s's critical
// arrangements. It and criticalClosure read Site.Deps and Graph.Providers
// directly, so the oracle stays independent of the table.
func (g *Graph) criticalSet(s *Site, opts TraversalOpts) map[string]bool {
	set := make(map[string]bool)
	for _, d := range s.Deps {
		if !d.Class.Critical() {
			continue
		}
		for _, pname := range d.Providers {
			g.criticalClosure(pname, opts, set)
		}
	}
	return set
}

// criticalClosure walks provider-to-provider critical edges. Reaching a
// provider adds it to set; walking on through it requires opts to allow its
// service. set doubles as the visited set.
func (g *Graph) criticalClosure(p string, opts TraversalOpts, set map[string]bool) {
	if set[p] {
		return
	}
	set[p] = true
	prov, ok := g.Providers[p]
	if !ok || !opts.allows(prov.Service) {
		return
	}
	for _, d := range prov.Deps {
		if !d.Class.Critical() {
			continue
		}
		for _, dep := range d.Providers {
			g.criticalClosure(dep, opts, set)
		}
	}
}

// robustnessOracle is the pointer-map RobustnessOf.
func (g *Graph) robustnessOracle(site string) Robustness {
	s := g.Site(site)
	out := Robustness{Site: site, Score: 1}
	consumed := 0
	all := map[string]bool{}
	for _, svc := range Services {
		d, ok := s.Deps[svc]
		if !ok || d.Class == ClassNone || d.Class == ClassUnknown {
			continue
		}
		consumed++
		crit := map[string]bool{}
		if d.Class.Critical() {
			for _, p := range d.Providers {
				g.criticalClosure(p, walkAll, crit)
			}
		}
		for _, p := range s.PrivateInfra[svc] {
			if prov, ok := g.Providers[p]; ok {
				for _, pd := range prov.Deps {
					if pd.Class.Critical() {
						for _, dep := range pd.Providers {
							g.criticalClosure(dep, walkAll, crit)
						}
					}
				}
			}
		}
		if len(crit) == 0 {
			out.RedundantServices = append(out.RedundantServices, svc)
			continue
		}
		out.CriticalServices = append(out.CriticalServices, svc)
		for p := range crit {
			all[p] = true
		}
	}
	if consumed > 0 {
		out.Score = float64(len(out.RedundantServices)) / float64(consumed)
	}
	for p := range all {
		out.CriticalProviders = append(out.CriticalProviders, p)
	}
	sort.Strings(out.CriticalProviders)
	for _, p := range out.CriticalProviders {
		if n := g.Impact(p, AllIndirect()); n > out.SharedFate {
			out.SharedFate = n
		}
	}
	return out
}

// chainLines renders mitigation's per-site critical chains as
// "site service mitigable provider: closure" lines.
func chainLines(site string, svc Service, mitigable bool, provider string, closure []string) string {
	sort.Strings(closure)
	return fmt.Sprintf("%s %s %v %s: %v", site, svc, mitigable, provider, closure)
}

// CriticalWalkMismatches holds the id walk over the arrangement table
// against the pointer-map oracle on g: every site's closure under opts,
// CriticalDepsPerSite both ways, CriticalProviders, RobustnessOf, and
// mitigation's per-site chain closures under opts. It returns one line per
// difference.
func CriticalWalkMismatches(g *Graph, opts TraversalOpts) []string {
	var bad []string
	diff := func(what string, got, want any) {
		if !reflect.DeepEqual(got, want) {
			bad = append(bad, fmt.Sprintf("%s: got %v, want %v", what, got, want))
		}
	}
	t := g.arrangements()
	w := t.walk(viaBits(opts))
	direct, indirect := g.CriticalDepsPerSite(false), g.CriticalDepsPerSite(true)
	var got, want []string
	var r arrRows
	for _, s := range g.Sites {
		w.fromCriticalDeps(&r, t.resolve(&r, s))
		diff(s.Name+" walk", w.names(), sortedKeys(g.criticalSet(s, opts)))
		w.reset()
		diff(s.Name+" direct deps", direct[s.Name], len(g.criticalSet(s, DirectOnly())))
		diff(s.Name+" indirect deps", indirect[s.Name], len(g.criticalSet(s, walkAll)))
		diff(s.Name+" critical providers", g.CriticalProviders(s), sortedKeys(g.criticalSet(s, walkAll)))
		r, err := g.RobustnessOf(s.Name)
		diff(s.Name+" robustness", r, g.robustnessOracle(s.Name))
		diff(s.Name+" robustness error", err, error(nil))

		for _, svc := range Services {
			if d, ok := s.Deps[svc]; ok && d.Class.Critical() && len(d.Providers) > 0 {
				set := map[string]bool{}
				for _, p := range d.Providers {
					g.criticalClosure(p, opts, set)
				}
				want = append(want, chainLines(s.Name, svc, len(d.Providers) == 1, d.Providers[0], sortedKeys(set)))
			}
			if infra := s.PrivateInfra[svc]; len(infra) > 0 {
				set := map[string]bool{}
				for _, p := range infra {
					g.criticalClosure(p, opts, set)
				}
				want = append(want, chainLines(s.Name, svc, false, "", sortedKeys(set)))
			}
		}
	}
	p := g.newPlanner(t, opts, 0)
	for _, c := range p.chains {
		var closure []string
		for id, name := range t.e.names {
			if p.closures[c.closure].has(id) {
				closure = append(closure, name)
			}
		}
		provider := ""
		if c.provider >= 0 {
			provider = t.e.names[c.provider]
		}
		got = append(got, chainLines(g.Sites[p.sites[c.site]].Name, Service(c.svc), c.mitigable, provider, closure))
	}
	diff("mitigation chains", got, want)
	return bad
}

// unionOthers unions the closures of every live chain of ci's site except
// ci itself; ci = -1 with site si unions them all. It is the planner's gain
// computation before the once/twice coverage counts, kept as their oracle.
func (p *planner) unionOthers(si, ci int32) bitset {
	u := newBitset(len(p.once) * 64)
	for i := p.off[si]; i < p.off[si+1]; i++ {
		if i == ci || p.chains[i].removed {
			continue
		}
		u.unionWith(p.closures[p.chains[i].closure])
	}
	return u
}

// gainOf is the oracle for planner.gain: the closure bits of chain ci that
// no other live chain of its site covers.
func (p *planner) gainOf(ci int32) int32 {
	others := p.unionOthers(p.chains[ci].site, ci)
	gain := 0
	for w, word := range p.closures[p.chains[ci].closure] {
		gain += bits.OnesCount64(word &^ others[w])
	}
	return int32(gain)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
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

// ConcentrationSet returns the member sites of C_p as the metrics engine
// holds them, the set ImpactSet reads for I_p.
func (g *Graph) ConcentrationSet(p string, opts TraversalOpts) map[string]bool {
	return g.Metrics().siteSet(p, opts, false)
}

// ProviderNames returns every provider name the metrics engine (and thus
// the simulator) knows, sorted.
func (g *Graph) ProviderNames() []string {
	var out []string
	g.EachProviderName(func(name string) { out = append(out, name) })
	sort.Strings(out)
	return out
}

// ParseDelta decodes one delta document from r, as a delta stream's step
// or a POST /v1/delta body decodes it.
func ParseDelta(r io.Reader) (Delta, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Delta{}, err
	}
	var d Delta
	if err := d.UnmarshalJSON(data); err != nil {
		return Delta{}, err
	}
	return d, nil
}
