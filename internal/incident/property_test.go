// Scale-2K consistency proofs against the measured universe. This file is
// an external test package so it can drive the full analysis pipeline —
// analysis imports incident, so these tests cannot live inside it.
package incident_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"depscope/internal/analysis"
	"depscope/internal/core"
	"depscope/internal/incident"
)

const propScale = 2000

// Measured runs are expensive; share one per seed across the tests.
var (
	fixtureMu sync.Mutex
	fixtures  = map[int64]*analysis.Run{}
)

func runAt(t testing.TB, seed int64) *analysis.Run {
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if r, ok := fixtures[seed]; ok {
		return r
	}
	run, err := analysis.Execute(context.Background(), analysis.Options{Scale: propScale, Seed: seed})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	fixtures[seed] = run
	return run
}

// TestSingleProviderSimulationMatchesImpact is the headline consistency
// property: for EVERY provider of the measured 2K universe (seeds 1 and
// 2020, both snapshots), simulating that provider's outage yields exactly
// the I_p membership as the down-site set and as many affected sites as
// C_p counts. The affected set's C_p membership on the same graphs is held
// by core's TestRunMatchesSiteScanMeasured.
func TestSingleProviderSimulationMatchesImpact(t *testing.T) {
	opts := core.AllIndirect()
	for _, seed := range []int64{1, 2020} {
		run := runAt(t, seed)
		for _, sd := range []*analysis.SnapshotData{run.Y2016, run.Y2020} {
			g := sd.Graph
			sim := g.OutageSim(opts)
			checked := 0
			for _, name := range incident.ProviderNames(g) {
				res := sim.Run([]string{name}, core.OutageOpts{})
				if res.Down != g.Impact(name, opts) {
					t.Fatalf("seed %d %s %s: simulated %d down, engine I_p = %d",
						seed, sd.Snapshot, name, res.Down, g.Impact(name, opts))
				}
				if affected := res.Down + res.Degraded; affected != g.Concentration(name, opts) {
					t.Fatalf("seed %d %s %s: simulated %d affected, engine C_p = %d",
						seed, sd.Snapshot, name, affected, g.Concentration(name, opts))
				}
				imp := g.ImpactSet(name, opts)
				for i, s := range g.Sites {
					if (res.Outcomes[i] == core.SiteDown) != imp[s.Name] {
						t.Fatalf("seed %d %s %s: site %s down=%v but impact membership=%v",
							seed, sd.Snapshot, name, s.Name,
							res.Outcomes[i] == core.SiteDown, imp[s.Name])
					}
				}
				checked++
			}
			if checked == 0 {
				t.Fatalf("seed %d %s: no providers checked", seed, sd.Snapshot)
			}
			t.Logf("seed %d %s: %d providers consistent", seed, sd.Snapshot, checked)
		}
	}
}

// TestScenarioValidationAtScale runs the package-level entry point for the
// top providers of every service and asserts each report's embedded
// validation (down set vs I_p) holds on measured data.
func TestScenarioValidationAtScale(t *testing.T) {
	run := runAt(t, 2020)
	g := run.Y2020.Graph
	for _, svc := range []string{"dns", "cdn", "ca"} {
		parsed, err := incident.ParseScenario(strings.NewReader(
			`{"name":"top-` + svc + `","targets":{"top_k":5,"top_k_service":"` + svc + `"}}`))
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range g.TopProviders(svcOf(t, svc), core.AllIndirect(), false, 5) {
			rep, err := incident.Simulate(context.Background(), g, &incident.Scenario{
				Name:    "validate-" + st.Name,
				Targets: incident.Targets{Providers: []string{st.Name}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Validation == nil || !rep.Validation.Match {
				t.Errorf("%s: validation failed: %+v", st.Name, rep.Validation)
			}
		}
		// The parsed multi-target scenario must run cleanly too.
		if _, err := incident.Simulate(context.Background(), g, parsed); err != nil {
			t.Errorf("top-5 %s scenario: %v", svc, err)
		}
	}
}

func svcOf(t *testing.T, s string) core.Service {
	t.Helper()
	switch s {
	case "dns":
		return core.DNS
	case "cdn":
		return core.CDN
	case "ca":
		return core.CA
	}
	t.Fatalf("bad service %s", s)
	return 0
}

// dynReplayGolden pins the Dyn-replay preset's full report at scale 2000,
// seed 2020. encoding/json sorts map keys and every slice in the report is
// deterministically ordered, so the encoding is canonical. After an
// intentional report-shape change, rerun
//
//	go test ./internal/incident -run TestDynReplayGolden -v
//
// and pin the new hash the failure message prints.
const dynReplayGolden = "d07f4884783655c02bdb3272844d986bc0064f72ab9faaae8bb0e28652097c49"

// TestDynReplayGolden pins the Dyn-replay preset output — the acceptance
// gate make verify runs explicitly.
func TestDynReplayGolden(t *testing.T) {
	run := runAt(t, 2020)
	rep, err := analysis.DynReplay(context.Background(), run)
	if err != nil {
		t.Fatal(err)
	}
	// Structural sanity before the byte pin: Dyn must matter in 2016.
	if len(rep.Stages) == 0 || rep.Stages[len(rep.Stages)-1].Down == 0 {
		t.Fatalf("Dyn replay shows no impact: %+v", rep)
	}
	if rep.Validation == nil || !rep.Validation.Match {
		t.Fatalf("Dyn replay validation failed: %+v", rep.Validation)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != dynReplayGolden {
		t.Errorf("Dyn-replay report hash %s, want pinned %s\nreport:\n%s", got, dynReplayGolden, b)
	}
}

// sweepGolden pins the mc-baseline Monte-Carlo sweep at scale 2000, seed
// 2020 — the seeded-determinism acceptance gate. Scenario i draws from a
// splitmix of (seed, i), so the hash is stable across worker counts and
// machines. After an intentional report-shape change, rerun
//
//	go test ./internal/incident -run TestSweepGolden -v
//
// and pin the new hash the failure message prints.
const sweepGolden = "9e2e26cda72547891cf0f3bf19e9251acfce014227a26da62f72eeea24cc6eda"

// TestSweepGolden pins the Monte-Carlo baseline sweep output.
func TestSweepGolden(t *testing.T) {
	run := runAt(t, 2020)
	sp, ok := incident.SweepPreset("mc-baseline")
	if !ok {
		t.Fatal("mc-baseline preset missing")
	}
	rep, err := analysis.MonteCarloSweep(context.Background(), run, sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Structural sanity before the byte pin: a 2000-scenario C_p-weighted
	// sweep over the measured 2K universe must observe damage.
	if rep.Scenarios < 1000 || rep.Down.Max == 0 || len(rep.Attribution) == 0 {
		t.Fatalf("degenerate sweep: %+v", rep)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != sweepGolden {
		t.Errorf("sweep report hash %s, want pinned %s\nreport:\n%s", got, sweepGolden, b)
	}
}

// sweepPresetGoldens pins the other sweep presets at scale 2000, seed 2020:
// correlated entity groups (mc-entity-storm), a deep fixed-target DNS sweep
// (mc-dns-deep) and the ExpFloat64 recovery draws (mc-dyn-recovery). Each
// exercises a part of the random stream mc-baseline does not. Same re-pin
// procedure as TestSweepGolden.
var sweepPresetGoldens = map[string]string{
	"mc-entity-storm": "dc949266c68bab8d5690bf70babb064bdc78e98e94dea475450e48e7b2f79a1a",
	"mc-dns-deep":     "c6da495ecabd130fab0cdbe282eb3afbff48d1101f1cc7ed4456499d73fa25e4",
	"mc-dyn-recovery": "b8468bb24a7b5b701bcaf3fdec1eabd92ab7f6836a078a1fb9440dd2a7f84577",
}

// TestSweepPresetsGolden pins every sweep preset TestSweepGolden does not.
func TestSweepPresetsGolden(t *testing.T) {
	run := runAt(t, 2020)
	for name, want := range sweepPresetGoldens {
		sp, ok := incident.SweepPreset(name)
		if !ok {
			t.Fatalf("%s preset missing", name)
		}
		rep, err := analysis.MonteCarloSweep(context.Background(), run, sp, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s report hash %s, want pinned %s", name, got, want)
		}
	}
}

// mitigationGolden pins the K=25 mitigation plan for the 2020 snapshot at
// scale 2000, seed 2020. Same re-pin procedure as the other goldens.
const mitigationGolden = "d9f0e537eb1a842991348adf441c8bf082c219e8657e3e474707bdeec510566e"

// TestMitigationGolden pins the mitigation optimizer's plan and re-proves
// its before-total against the metric engine at measured scale.
func TestMitigationGolden(t *testing.T) {
	run := runAt(t, 2020)
	plan, err := analysis.Mitigation(run, 25, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Options) == 0 || plan.Reduction() <= 0 {
		t.Fatalf("degenerate plan: %+v", plan)
	}
	// The optimizer's aggregate-before must equal Σ_p |I_p| from the engine
	// on the measured graph, not just on synthetic fixtures.
	_, imp := run.Y2020.Graph.Metrics().Counts(core.AllIndirect())
	sum := 0
	for _, n := range imp {
		sum += n
	}
	if plan.Before != sum {
		t.Fatalf("plan before = %d, engine Σ|I_p| = %d", plan.Before, sum)
	}
	b, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(b)
	if got := hex.EncodeToString(h[:]); got != mitigationGolden {
		t.Errorf("mitigation plan hash %s, want pinned %s\nplan:\n%s", got, mitigationGolden, b)
	}
}
