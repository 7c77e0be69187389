package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// providerList flattens a graph's provider map for NewGraph.
func providerList(g *Graph) []*Provider {
	out := make([]*Provider, 0, len(g.Providers))
	for _, p := range g.Providers {
		out = append(out, p)
	}
	return out
}

// fromScratch rebuilds the same node structure through NewGraph — the
// reference every delta-built graph is held against.
func fromScratch(g *Graph) *Graph {
	return NewGraph(append([]*Site(nil), g.Sites...), providerList(g))
}

// countsAgree compares two count maps as total functions (a missing name
// counts zero): a delta-carried universe may retain zero-count names a
// from-scratch engine never allocates, which is observably identical.
func countsAgree(t *testing.T, label string, got, want map[string]int) bool {
	t.Helper()
	for name, w := range want {
		if g := got[name]; g != w {
			t.Logf("%s: %s = %d, want %d", label, name, g, w)
			return false
		}
	}
	for name, g := range got {
		if w, ok := want[name]; !ok && g != 0 {
			t.Logf("%s: %s = %d, want absent/0", label, name, g)
			return false
		} else if ok && g != w {
			t.Logf("%s: %s = %d, want %d", label, name, g, w)
			return false
		}
	}
	return true
}

// randomDelta builds a valid delta of 1-3 ops against g. Ops target
// distinct sites so sequential application cannot invalidate a later op.
func randomDelta(rng *rand.Rand, g *Graph, step int) Delta {
	provNames := make([]string, 0, len(g.Providers))
	for name := range g.Providers {
		provNames = append(provNames, name)
	}
	// Deterministic order: map iteration must not leak into the delta.
	sortStrings(provNames)
	pickProv := func() string {
		if len(provNames) == 0 || rng.Intn(6) == 0 {
			return "Pnew" + itoa(rng.Intn(4))
		}
		return provNames[rng.Intn(len(provNames))]
	}
	classes := []DepClass{ClassPrivate, ClassSingleThird, ClassMultiThird, ClassPrivatePlusThird, ClassUnknown}
	randomDep := func() Dep {
		class := classes[rng.Intn(len(classes))]
		d := Dep{Class: class}
		if class.UsesThird() {
			d.Providers = []string{pickProv()}
			if class != ClassSingleThird && rng.Intn(2) == 0 {
				if second := pickProv(); second != d.Providers[0] {
					d.Providers = append(d.Providers, second)
				}
			}
		}
		return d
	}

	usedSites := map[string]bool{}
	removedProvs := map[string]bool{}
	pickSite := func() *Site {
		for tries := 0; tries < 10; tries++ {
			s := g.Sites[rng.Intn(len(g.Sites))]
			if !usedSites[s.Name] {
				usedSites[s.Name] = true
				return s
			}
		}
		return nil
	}

	var d Delta
	nOps := 1 + rng.Intn(3)
	for i := 0; i < nOps; i++ {
		switch kind := rng.Intn(6); {
		case kind == 0 && len(g.Sites) > 0: // site-dep
			s := pickSite()
			if s == nil {
				continue
			}
			op := Op{Kind: OpSiteDep, Name: s.Name, Service: Service(rng.Intn(3))}
			if rng.Intn(5) != 0 {
				op.Dep = randomDep()
			} // else: zero Dep deletes the arrangement
			d.Ops = append(d.Ops, op)
		case kind == 1 && len(g.Sites) > 0: // swap
			s := pickSite()
			if s == nil {
				continue
			}
			var swapped bool
			for svc, dep := range s.Deps {
				if !dep.Class.UsesThird() || len(dep.Providers) == 0 {
					continue
				}
				d.Ops = append(d.Ops, Op{
					Kind:    OpSwap,
					Name:    s.Name,
					Service: svc,
					From:    dep.Providers[rng.Intn(len(dep.Providers))],
					To:      pickProv(),
				})
				swapped = true
				break
			}
			if !swapped {
				usedSites[s.Name] = false
			}
		case kind == 2: // site-add
			name := "added" + itoa(step) + "x" + itoa(i)
			if g.Site(name) != nil {
				continue
			}
			s := &Site{Name: name, Rank: len(g.Sites) + i + 1, Deps: map[Service]Dep{}}
			for _, svc := range Services {
				if rng.Intn(2) == 0 {
					s.Deps[svc] = randomDep()
				}
			}
			if rng.Intn(3) == 0 {
				s.PrivateInfra = map[Service][]string{Service(rng.Intn(3)): {pickProv()}}
			}
			d.Ops = append(d.Ops, Op{Kind: OpSiteAdd, Site: s})
		case kind == 3 && len(g.Sites) > 1: // site-remove
			if s := pickSite(); s != nil {
				d.Ops = append(d.Ops, Op{Kind: OpSiteRemove, Name: s.Name})
			}
		case kind == 4: // provider-set (structural)
			p := &Provider{Name: pickProv(), Service: Service(rng.Intn(3)), Deps: map[Service]Dep{}}
			if rng.Intn(2) == 0 {
				if dep := randomDep(); dep.Class.UsesThird() {
					p.Deps[Service(rng.Intn(3))] = dep
				}
			}
			delete(removedProvs, p.Name)
			d.Ops = append(d.Ops, Op{Kind: OpProviderSet, Provider: p})
		case kind == 5 && len(provNames) > 0: // provider-remove (structural)
			name := provNames[rng.Intn(len(provNames))]
			if removedProvs[name] {
				continue
			}
			removedProvs[name] = true
			d.Ops = append(d.Ops, Op{Kind: OpProviderRemove, Name: name})
		}
	}
	return d
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// deltaStreamAgrees drives one randomized delta stream and checks, after
// every step, that the carried engine's counts are identical to the
// reference walks and to a from-scratch engine over the same structure —
// both through per-name queries and complete Counts maps — and that the
// predecessor graph still answers its old counts (immutability).
func deltaStreamAgrees(t *testing.T, seed int64) bool {
	optsList := []TraversalOpts{DirectOnly(), AllIndirect(), {ViaProviders: []Service{CA}}}
	rng := rand.New(rand.NewSource(seed))
	cur := randomGraph(seed)
	// Prime the cache so Apply has state to carry: the first two keys
	// through Counts, the third through per-name queries.
	for _, opts := range optsList[:2] {
		cur.Metrics().Counts(opts)
	}
	for name := range cur.Providers {
		cur.Metrics().Concentration(name, optsList[2])
		cur.Metrics().Impact(name, optsList[2])
	}

	for step := 0; step < 5; step++ {
		d := randomDelta(rng, cur, step)
		prevConc, prevImp := cur.Metrics().Counts(AllIndirect())
		prevSites := len(cur.Sites)

		ng, stats, err := cur.Apply(d)
		if err != nil {
			t.Logf("seed %d step %d: apply: %v", seed, step, err)
			return false
		}
		if len(d.Ops) == 0 {
			continue
		}
		if stats.Ops != len(d.Ops) {
			t.Logf("seed %d step %d: stats.Ops = %d, want %d", seed, step, stats.Ops, len(d.Ops))
			return false
		}
		ref := fromScratch(ng)
		for _, opts := range optsList {
			label := "seed " + itoa(int(seed&0xffff)) + " step " + itoa(step)
			// Per-name queries first, before Counts touches the entry.
			for name := range ref.Providers {
				if ng.Concentration(name, opts) != len(ref.ConcentrationSet(name, opts)) {
					t.Logf("%s: per-name C(%s) diverged", label, name)
					return false
				}
				if ng.Impact(name, opts) != len(ref.ImpactSet(name, opts)) {
					t.Logf("%s: per-name I(%s) diverged", label, name)
					return false
				}
			}
			gotC, gotI := ng.Metrics().Counts(opts)
			wantC, wantI := ref.Metrics().Counts(opts)
			if !countsAgree(t, label+" conc", gotC, wantC) || !countsAgree(t, label+" imp", gotI, wantI) {
				return false
			}
		}
		// The predecessor graph must be untouched: same sites, same counts.
		if len(cur.Sites) != prevSites {
			t.Logf("seed %d step %d: predecessor mutated", seed, step)
			return false
		}
		curConc, curImp := cur.Metrics().Counts(AllIndirect())
		if !reflect.DeepEqual(curConc, prevConc) || !reflect.DeepEqual(curImp, prevImp) {
			t.Logf("seed %d step %d: predecessor counts changed", seed, step)
			return false
		}
		cur = ng
	}
	return true
}

// Property: delta-maintained counts equal from-scratch counts after every
// step of a randomized delta stream.
func TestPropertyDeltaStreamMatchesFromScratch(t *testing.T) {
	// The batch fill is the engine's only strategy; the subtest keeps its
	// name so the property stays addressable as it always was.
	t.Run("batch", func(t *testing.T) {
		f := func(seed int64) bool { return deltaStreamAgrees(t, seed) }
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Error(err)
		}
	})
}

// Property: past the dirtiness threshold Apply falls back to a fresh
// engine and is still exactly equivalent.
func TestPropertyDeltaFallbackEquivalent(t *testing.T) {
	old := deltaDirtyLimit
	deltaDirtyLimit = func(int) int { return 0 } // force the fallback
	defer func() { deltaDirtyLimit = old }()

	f := func(seed int64) bool {
		cur := randomGraph(seed)
		cur.Metrics().Counts(AllIndirect())
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		d := randomDelta(rng, cur, 0)
		ng, stats, err := cur.Apply(d)
		if err != nil {
			return false
		}
		if stats.DirtyNames > 0 && !stats.Rebuilt {
			t.Logf("seed %d: expected fallback rebuild (dirty=%d)", seed, stats.DirtyNames)
			return false
		}
		ref := fromScratch(ng)
		gotC, gotI := ng.Metrics().Counts(AllIndirect())
		wantC, wantI := ref.Metrics().Counts(AllIndirect())
		return countsAgree(t, "conc", gotC, wantC) && countsAgree(t, "imp", gotI, wantI)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func twoSiteGraph() *Graph {
	sites := []*Site{
		{Name: "a.com", Rank: 1, Deps: map[Service]Dep{
			DNS: {Class: ClassSingleThird, Providers: []string{"dyn"}},
		}},
		{Name: "b.com", Rank: 2, Deps: map[Service]Dep{
			DNS: {Class: ClassMultiThird, Providers: []string{"dyn", "ns1"}},
		}},
	}
	providers := []*Provider{
		{Name: "dyn", Service: DNS, Deps: map[Service]Dep{}},
		{Name: "ns1", Service: DNS, Deps: map[Service]Dep{}},
	}
	return NewGraph(sites, providers)
}

func TestApplySwapMovesCounts(t *testing.T) {
	g := twoSiteGraph()
	if got := g.Impact("dyn", AllIndirect()); got != 1 {
		t.Fatalf("pre-delta I(dyn) = %d, want 1", got)
	}
	ng, stats, err := g.Apply(Delta{Ops: []Op{
		{Kind: OpSwap, Name: "a.com", Service: DNS, From: "dyn", To: "ns1"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DirtyNames == 0 {
		t.Error("swap should dirty at least the two providers")
	}
	if got := ng.Impact("dyn", AllIndirect()); got != 0 {
		t.Errorf("post-delta I(dyn) = %d, want 0", got)
	}
	if got := ng.Impact("ns1", AllIndirect()); got != 1 {
		t.Errorf("post-delta I(ns1) = %d, want 1", got)
	}
	if got := ng.Concentration("dyn", AllIndirect()); got != 1 {
		t.Errorf("post-delta C(dyn) = %d, want 1 (b.com still multi on dyn)", got)
	}
	// The old graph is untouched.
	if got := g.Impact("dyn", AllIndirect()); got != 1 {
		t.Errorf("old graph I(dyn) = %d, want 1", got)
	}
	if g.Site("a.com").Deps[DNS].Providers[0] != "dyn" {
		t.Error("old site node mutated")
	}
	// Untouched nodes are shared, touched ones are not.
	if ng.Site("b.com") != g.Site("b.com") {
		t.Error("untouched site not shared")
	}
	if ng.Site("a.com") == g.Site("a.com") {
		t.Error("edited site should be a fresh node")
	}
}

func TestApplyValidation(t *testing.T) {
	g := twoSiteGraph()
	cases := []struct {
		name string
		d    Delta
		want string
	}{
		{"unknown site", Delta{Ops: []Op{{Kind: OpSiteRemove, Name: "nope.com"}}}, "unknown site"},
		{"swap unknown provider", Delta{Ops: []Op{{Kind: OpSwap, Name: "a.com", Service: DNS, From: "ns1", To: "x"}}}, "does not use"},
		{"swap empty to", Delta{Ops: []Op{{Kind: OpSwap, Name: "a.com", Service: DNS, From: "dyn"}}}, "non-empty replacement"},
		{"swap missing service", Delta{Ops: []Op{{Kind: OpSwap, Name: "a.com", Service: CDN, From: "dyn", To: "x"}}}, "no CDN arrangement"},
		{"dup site", Delta{Ops: []Op{{Kind: OpSiteAdd, Site: &Site{Name: "a.com"}}}}, "already exists"},
		{"class without providers", Delta{Ops: []Op{{Kind: OpSiteDep, Name: "a.com", Service: DNS, Dep: Dep{Class: ClassSingleThird}}}}, "requires providers"},
		{"unknown provider", Delta{Ops: []Op{{Kind: OpProviderRemove, Name: "nope"}}}, "unknown provider"},
		{"nil payload", Delta{Ops: []Op{{Kind: OpSiteAdd}}}, "payload missing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ng, _, err := g.Apply(tc.d)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
			if ng != nil {
				t.Error("failed apply must not return a graph")
			}
		})
	}
	// The original survives every failed apply.
	if got := g.Impact("dyn", AllIndirect()); got != 1 {
		t.Errorf("original graph damaged by failed applies: I(dyn) = %d", got)
	}
}

func TestApplyEmptyDeltaReturnsReceiver(t *testing.T) {
	g := twoSiteGraph()
	ng, stats, err := g.Apply(Delta{})
	if err != nil || ng != g || stats.Ops != 0 {
		t.Fatalf("empty delta: ng == g %v, stats %+v, err %v", ng == g, stats, err)
	}
}

func TestApplySiteAddRemoveRoundtrip(t *testing.T) {
	g := twoSiteGraph()
	g.Metrics().Counts(AllIndirect())
	add := Delta{Ops: []Op{{Kind: OpSiteAdd, Site: &Site{
		Name: "c.com", Rank: 3,
		Deps: map[Service]Dep{DNS: {Class: ClassSingleThird, Providers: []string{"dyn"}}},
	}}}}
	g2, _, err := g.Apply(add)
	if err != nil {
		t.Fatal(err)
	}
	if got := g2.Impact("dyn", AllIndirect()); got != 2 {
		t.Fatalf("after add I(dyn) = %d, want 2", got)
	}
	g3, _, err := g2.Apply(Delta{Ops: []Op{{Kind: OpSiteRemove, Name: "c.com"}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := g3.Impact("dyn", AllIndirect()); got != 1 {
		t.Fatalf("after remove I(dyn) = %d, want 1", got)
	}
	if g3.Site("c.com") != nil || len(g3.Sites) != 2 {
		t.Error("removed site still present")
	}
}

func TestDeltaJSONRoundtrip(t *testing.T) {
	d := Delta{Ops: []Op{
		{Kind: OpSwap, Name: "a.com", Service: DNS, From: "dyn", To: "ns1"},
		{Kind: OpSiteDep, Name: "b.com", Service: CDN, Dep: Dep{Class: ClassMultiThird, Providers: []string{"cdn1", "cdn2"}}},
		{Kind: OpSiteDep, Name: "b.com", Service: CA}, // zero Dep: delete
		{Kind: OpSiteAdd, Site: &Site{
			Name: "c.com", Rank: 3,
			Deps:         map[Service]Dep{DNS: {Class: ClassSingleThird, Providers: []string{"dyn"}}},
			PrivateInfra: map[Service][]string{CDN: {"c-cdn.com"}},
		}},
		{Kind: OpProviderSet, Provider: &Provider{Name: "cdn1", Service: CDN,
			Deps: map[Service]Dep{DNS: {Class: ClassSingleThird, Providers: []string{"ns1"}}}}},
		{Kind: OpProviderRemove, Name: "cdn2"},
		{Kind: OpSiteRemove, Name: "a.com"},
	}}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseDelta(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("roundtrip parse: %v\n%s", err, b)
	}
	if !reflect.DeepEqual(d, back) {
		t.Fatalf("roundtrip mismatch:\nin:  %+v\nout: %+v\nwire: %s", d, back, b)
	}
}

func TestParseDeltaRejectsBadInput(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"unknown field", `{"ops":[{"op":"swap","name":"a","service":"dns","form":"x","to":"y"}]}`, "unknown field"},
		{"unknown op", `{"ops":[{"op":"merge"}]}`, "unknown op"},
		{"unknown service", `{"ops":[{"op":"swap","name":"a","service":"smtp","from":"x","to":"y"}]}`, "unknown service"},
		{"unknown class", `{"ops":[{"op":"site-dep","name":"a","service":"dns","dep":{"class":"quad-third"}}]}`, "unknown dependency class"},
		{"trailing data", `{"ops":[]}{"ops":[]}`, "trailing data"},
		{"truncated", `{"ops":[{"op":"swap"`, "decode delta"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseDelta(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}
