package incident

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"depscope/internal/core"
)

// testGraph builds a hand-made graph exercising every selector: DNS leaf
// providers under two entities, a CDN depending on DNS, private infra.
func testGraph() *core.Graph {
	sites := []*core.Site{
		{Name: "s1", Rank: 1, Deps: map[core.Service]core.Dep{
			core.DNS: {Class: core.ClassSingleThird, Providers: []string{"dynect.net"}},
		}},
		{Name: "s2", Rank: 2, Deps: map[core.Service]core.Dep{
			core.DNS: {Class: core.ClassMultiThird, Providers: []string{"dynect.net", "awsdns.net"}},
			core.CDN: {Class: core.ClassSingleThird, Providers: []string{"fastly.net"}},
		}},
		{Name: "s3", Rank: 3, Deps: map[core.Service]core.Dep{
			core.DNS: {Class: core.ClassSingleThird, Providers: []string{"awsdns.net"}},
			core.CA:  {Class: core.ClassSingleThird, Providers: []string{"digicert.com"}},
		}},
		{Name: "s4", Rank: 4,
			Deps: map[core.Service]core.Dep{
				core.DNS: {Class: core.ClassPrivate},
			},
			PrivateInfra: map[core.Service][]string{
				core.CDN: {"cdn.s4.com"},
			}},
	}
	providers := []*core.Provider{
		{Name: "fastly.net", Service: core.CDN, Deps: map[core.Service]core.Dep{
			core.DNS: {Class: core.ClassSingleThird, Providers: []string{"dynect.net"}},
		}},
		{Name: "cdn.s4.com", Service: core.CDN, Deps: map[core.Service]core.Dep{
			core.DNS: {Class: core.ClassSingleThird, Providers: []string{"dynect.net"}},
		}},
		{Name: "digicert.com", Service: core.CA, Deps: map[core.Service]core.Dep{
			core.DNS: {Class: core.ClassSingleThird, Providers: []string{"awsdns.net"}},
		}},
	}
	return core.NewGraph(sites, providers)
}

func TestParseScenarioRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"unknown field", `{"name":"x","tragets":{"providers":["a"]}}`, "unknown field"},
		{"no selector", `{"name":"x","targets":{}}`, "select nothing"},
		{"bad severity", `{"name":"x","severity":1.5,"targets":{"providers":["a"]}}`, "out of range"},
		{"bad snapshot", `{"name":"x","snapshot":"2019","targets":{"providers":["a"]}}`, "unknown snapshot"},
		{"bad via", `{"name":"x","via":["smtp"],"targets":{"providers":["a"]}}`, "unknown service"},
		{"bad service", `{"name":"x","targets":{"service":"smtp"}}`, "unknown service"},
		{"topk without service", `{"name":"x","targets":{"top_k":3}}`, "top_k needs top_k_service"},
		{"negative topk", `{"name":"x","targets":{"top_k":-1,"top_k_service":"dns"}}`, "must be positive"},
		{"empty stage", `{"name":"x","stages":[{"name":"w1","targets":{}}]}`, "stage 1"},
		{"trailing data", `{"name":"a","targets":{"providers":["dynect.net"]}} {"garbage"`, "trailing data"},
	}
	for _, tc := range cases {
		_, err := ParseScenario(strings.NewReader(tc.doc))
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestParseScenarioRoundTrip(t *testing.T) {
	doc := `{
		"name": "custom",
		"snapshot": "2016",
		"severity": 0.5,
		"joint_failures": true,
		"via": ["dns", "cdn"],
		"stages": [
			{"name": "w1", "targets": {"providers": ["dynect.net"]}},
			{"name": "w2", "targets": {"entity": "awsdns", "top_k": 1, "top_k_service": "cdn"}}
		]
	}`
	sc, err := ParseScenario(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "custom" || len(sc.Stages) != 2 || !sc.JointFailures {
		t.Fatalf("parsed scenario mismatch: %+v", sc)
	}
	opts, err := sc.traversal()
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.ViaProviders) != 2 {
		t.Fatalf("traversal = %+v", opts)
	}
}

func TestResolveTargets(t *testing.T) {
	g := testGraph()
	opts := core.AllIndirect()

	got, err := ResolveTargets(g, Targets{Providers: []string{"dynect.net"}}, opts)
	if err != nil || len(got) != 1 || got[0] != "dynect.net" {
		t.Fatalf("providers: %v, %v", got, err)
	}
	if _, err := ResolveTargets(g, Targets{Providers: []string{"nosuch.example"}}, opts); err == nil {
		t.Fatal("unknown provider accepted")
	}

	// Entity grouping: the SLD alone selects the full identity.
	got, err = ResolveTargets(g, Targets{Entity: "dynect"}, opts)
	if err != nil || len(got) != 1 || got[0] != "dynect.net" {
		t.Fatalf("entity sld: %v, %v", got, err)
	}
	got, err = ResolveTargets(g, Targets{Entity: "AWSDNS.NET"}, opts)
	if err != nil || len(got) != 1 || got[0] != "awsdns.net" {
		t.Fatalf("entity fqdn: %v, %v", got, err)
	}
	if _, err := ResolveTargets(g, Targets{Entity: "cloudflare"}, opts); err == nil {
		t.Fatal("unmatched entity accepted")
	}

	// Service blackout: third-party CDNs only, private infra excluded.
	got, err = ResolveTargets(g, Targets{Service: "cdn"}, opts)
	if err != nil || len(got) != 1 || got[0] != "fastly.net" {
		t.Fatalf("service blackout: %v, %v", got, err)
	}

	// Top-K by concentration under the scenario traversal.
	got, err = ResolveTargets(g, Targets{TopK: 1, TopKService: "dns"}, opts)
	if err != nil || len(got) != 1 || got[0] != "dynect.net" {
		t.Fatalf("top-k: %v, %v", got, err)
	}

	// Selectors union.
	got, err = ResolveTargets(g, Targets{Providers: []string{"digicert.com"}, Entity: "dynect"}, opts)
	if err != nil || len(got) != 2 {
		t.Fatalf("union: %v, %v", got, err)
	}
}

func TestSimulateStagedAndValidation(t *testing.T) {
	g := testGraph()
	rep, err := Simulate(context.Background(), g, &Scenario{
		Name:    "one",
		Targets: Targets{Providers: []string{"dynect.net"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &rep.Stages[len(rep.Stages)-1]
	// dynect.net down: s1 (direct critical), s2 degraded DNS but down via
	// fastly (critical CDN on dyn), s4 down via its private CDN's hidden
	// dependency. s3 untouched.
	if f.Down != 3 || f.Unaffected != 1 {
		t.Fatalf("final = %+v", f)
	}
	if rep.Validation == nil || !rep.Validation.Match {
		t.Fatalf("validation missing or failed: %+v", rep.Validation)
	}
	if f.DirectDown != 2 || f.CollateralDown != 1 {
		t.Fatalf("direct/collateral = %d/%d, want 2/1", f.DirectDown, f.CollateralDown)
	}
	hasCascaded := false
	for _, p := range f.CascadedProviders {
		if p == "fastly.net" {
			hasCascaded = true
		}
	}
	if !hasCascaded {
		t.Fatalf("cascaded providers = %v, want fastly.net", f.CascadedProviders)
	}

	// Staged: the second wave only adds victims.
	rep, err = Simulate(context.Background(), g, &Scenario{
		Name: "staged",
		Stages: []Stage{
			{Name: "w1", Targets: Targets{Providers: []string{"dynect.net"}}},
			{Name: "w2", Targets: Targets{Entity: "awsdns"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stages) != 2 {
		t.Fatalf("stages = %d", len(rep.Stages))
	}
	if rep.Stages[0].Down != 3 || rep.Stages[1].Down != 4 {
		t.Fatalf("stage downs = %d, %d; want 3, 4", rep.Stages[0].Down, rep.Stages[1].Down)
	}
	if rep.Stages[1].NewlyDown != 1 {
		t.Fatalf("stage 2 newly down = %d, want 1", rep.Stages[1].NewlyDown)
	}
	if rep.Validation != nil {
		t.Fatal("multi-target scenario must not carry single-provider validation")
	}

	// Text rendering smoke check: every headline number appears.
	var b strings.Builder
	rep.WriteText(&b)
	out := b.String()
	for _, want := range []string{"staged", "stage 1/2", "stage 2/2", "newly down"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
}

func TestPresetsAreValid(t *testing.T) {
	names := PresetNames()
	if len(names) < 4 {
		t.Fatalf("suspiciously few presets: %v", names)
	}
	for _, name := range names {
		sc, ok := Preset(name)
		if !ok {
			t.Fatalf("preset %s vanished", name)
		}
		if err := sc.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
		if sc.Name != name {
			t.Errorf("preset %s carries name %q", name, sc.Name)
		}
	}
	if _, ok := Preset("nosuch"); ok {
		t.Fatal("unknown preset resolved")
	}
}

// bigGraph builds a synthetic graph large enough that a sweep over all of
// its providers takes real time, for the cancellation test.
func bigGraph(nSites int) *core.Graph {
	var sites []*core.Site
	var providers []*core.Provider
	nProv := 64
	for p := 0; p < nProv; p++ {
		name := fmt.Sprintf("dns%02d.example", p)
		if p%4 == 0 {
			providers = append(providers, &core.Provider{
				Name: fmt.Sprintf("cdn%02d.example", p), Service: core.CDN,
				Deps: map[core.Service]core.Dep{
					core.DNS: {Class: core.ClassSingleThird, Providers: []string{name}},
				},
			})
		}
	}
	for i := 0; i < nSites; i++ {
		s := &core.Site{Name: fmt.Sprintf("s%05d", i), Rank: i + 1, Deps: map[core.Service]core.Dep{
			core.DNS: {Class: core.ClassSingleThird, Providers: []string{fmt.Sprintf("dns%02d.example", i%64)}},
		}}
		if i%3 == 0 {
			s.Deps[core.CDN] = core.Dep{Class: core.ClassSingleThird,
				Providers: []string{fmt.Sprintf("cdn%02d.example", (i%16)*4)}}
		}
		sites = append(sites, s)
	}
	return core.NewGraph(sites, providers)
}

// ProviderNames returns every provider name g's metrics engine (and thus
// the simulator) knows, sorted. It is exported for the external
// incident_test package.
func ProviderNames(g *core.Graph) []string {
	var names []string
	g.EachProviderName(func(name string) { names = append(names, name) })
	sort.Strings(names)
	return names
}

// TestSweepCancellation aborts a sweep mid-flight. Run under -race (make
// verify does), it checks both the error contract and that concurrent
// abort does not race with in-flight simulations.
func TestSweepCancellation(t *testing.T) {
	g := bigGraph(4000)
	var scenarios []*Scenario
	for _, name := range ProviderNames(g) {
		for rep := 0; rep < 8; rep++ {
			scenarios = append(scenarios, &Scenario{
				Name:    fmt.Sprintf("%s#%d", name, rep),
				Targets: Targets{Providers: []string{name}},
			})
		}
	}

	// Pre-canceled context: the sweep must refuse to run.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Sweep(ctx, g, scenarios, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled sweep: err = %v, want context.Canceled", err)
	}

	// Mid-flight abort: cancel concurrently with the running sweep. The
	// sweep either returns the cancellation error or — if the race is lost
	// on a fast machine — finishes; both are valid outcomes, and the -race
	// run (make verify) is what proves the abort path is data-race free.
	ctx, cancel = context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		reports, err := Sweep(ctx, g, scenarios, 4)
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("mid-flight sweep: err = %v, want context.Canceled", err)
			}
			return
		}
		for i, r := range reports {
			if r == nil {
				t.Errorf("nil report %d on successful sweep", i)
				return
			}
		}
	}()
	cancel()
	<-done
}
