package incident

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"depscope/internal/core"
)

func TestParseSweepRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"unknown field", `{"name":"x","scnearios":10}`, "unknown field"},
		{"bad scenarios", `{"name":"x","scenarios":-1}`, "out of range"},
		{"huge scenarios", `{"name":"x","scenarios":1000000}`, "out of range"},
		{"bad base prob", `{"name":"x","base_prob":1.5}`, "out of range"},
		{"bad severity", `{"name":"x","severity":2}`, "out of range"},
		{"bad snapshot", `{"name":"x","snapshot":"2019"}`, "unknown snapshot"},
		{"bad service", `{"name":"x","service":"smtp"}`, "unknown service"},
		{"bad via", `{"name":"x","via":["smtp"]}`, "unknown service"},
		{"bad correlate", `{"name":"x","correlate":"region"}`, "unknown correlate"},
		{"empty targets", `{"name":"x","targets":{}}`, "select nothing"},
		{"bad recovery steps", `{"name":"x","recovery":{"steps":100}}`, "out of range"},
		{"bad recovery mean", `{"name":"x","recovery":{"mean_minutes":-5}}`, "negative"},
		{"trailing data", `{"name":"x","scenarios":10} {"garbage"`, "trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSweep(strings.NewReader(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestSweepPresetsAreValid(t *testing.T) {
	names := SweepPresetNames()
	if len(names) == 0 {
		t.Fatal("no sweep presets")
	}
	for _, name := range names {
		sp, ok := SweepPreset(name)
		if !ok {
			t.Fatalf("preset %q listed but not retrievable", name)
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("preset %q invalid: %v", name, err)
		}
		if sp.Name != name {
			t.Fatalf("preset %q has name %q", name, sp.Name)
		}
	}
}

// TestSweepDeterministicAcrossWorkers pins the seeding contract: the same
// spec produces byte-identical reports regardless of worker count, and a
// different seed produces a different damage sequence.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	g := testGraph()
	spec := func() *SweepSpec {
		return &SweepSpec{Name: "det", Scenarios: 400, Seed: 7, BaseProb: 0.3}
	}
	var reports [][]byte
	for _, workers := range []int{1, 4, 13} {
		rep, err := MonteCarlo(context.Background(), g, spec(), workers)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, b)
		var text bytes.Buffer
		rep.WriteText(&text)
		if text.Len() == 0 {
			t.Fatal("empty text render")
		}
	}
	for i := 1; i < len(reports); i++ {
		if !bytes.Equal(reports[0], reports[i]) {
			t.Fatalf("reports differ across worker counts:\n%s\n%s", reports[0], reports[i])
		}
	}
	other := spec()
	other.Seed = 8
	rep, err := MonteCarlo(context.Background(), g, other, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(rep)
	if bytes.Equal(reports[0], b) {
		t.Fatal("different seeds produced identical reports")
	}
}

// TestSweepFixedTargetMatchesSimulate is the bridge property: a sweep with
// fixed targets and one scenario at full severity must reproduce the
// deterministic engine's outcome exactly.
func TestSweepFixedTargetMatchesSimulate(t *testing.T) {
	g := testGraph()
	for _, targets := range []Targets{
		{Providers: []string{"dynect.net"}},
		{Service: "dns"},
		{Entity: "dynect"},
	} {
		sc := &Scenario{Name: "ref", Targets: targets}
		ref, err := Simulate(context.Background(), g, sc)
		if err != nil {
			t.Fatal(err)
		}
		final := &ref.Stages[len(ref.Stages)-1]

		tg := targets
		sp := &SweepSpec{Name: "mc", Scenarios: 1, Targets: &tg}
		rep, err := MonteCarlo(context.Background(), g, sp, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Down.Max != final.Down || rep.Down.P50 != final.Down {
			t.Fatalf("targets %+v: sweep down %+v, simulate down %d", targets, rep.Down, final.Down)
		}
		if rep.Degraded.Max != final.Degraded {
			t.Fatalf("targets %+v: sweep degraded %+v, simulate degraded %d", targets, rep.Degraded, final.Degraded)
		}
		if rep.FailuresPerScenario.Max != len(rep.FixedTargets) {
			t.Fatalf("targets %+v: %d failures but %d fixed targets",
				targets, rep.FailuresPerScenario.Max, len(rep.FixedTargets))
		}
	}
}

// TestSweepCorrelatedEntities pins the correlation model: identities of one
// registrable domain form one group and always fail together.
func TestSweepCorrelatedEntities(t *testing.T) {
	sites := []*core.Site{
		{Name: "s1", Rank: 1, Deps: map[core.Service]core.Dep{
			core.DNS: {Class: core.ClassSingleThird, Providers: []string{"ns1.dynect.net"}},
		}},
		{Name: "s2", Rank: 2, Deps: map[core.Service]core.Dep{
			core.DNS: {Class: core.ClassSingleThird, Providers: []string{"ns2.dynect.net"}},
		}},
		{Name: "s3", Rank: 3, Deps: map[core.Service]core.Dep{
			core.DNS: {Class: core.ClassSingleThird, Providers: []string{"other.net"}},
		}},
	}
	g := core.NewGraph(sites, nil)
	sp := &SweepSpec{Name: "corr", Scenarios: 500, Seed: 3, BaseProb: 0.4, Correlate: "entity"}
	rep, err := MonteCarlo(context.Background(), g, sp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PoolSize != 3 || rep.Groups != 2 {
		t.Fatalf("pool %d groups %d, want pool 3 in 2 entity groups", rep.PoolSize, rep.Groups)
	}
	var failures = map[string]int{}
	for _, a := range rep.Attribution {
		failures[a.Name] = a.Failures
	}
	if failures["ns1.dynect.net"] == 0 || failures["ns1.dynect.net"] != failures["ns2.dynect.net"] {
		t.Fatalf("correlated identities failed independently: %v", failures)
	}
}

// TestSweepRecoveryCurves checks the time-to-recover layer: the outage level
// never grows as providers recover, and the curve reaches the requested
// number of checkpoints.
func TestSweepRecoveryCurves(t *testing.T) {
	g := testGraph()
	sp := &SweepSpec{
		Name:      "rec",
		Scenarios: 300,
		Seed:      5,
		Targets:   &Targets{Service: "dns"},
		Recovery:  &RecoverySpec{Steps: 6, MeanMinutes: 60},
	}
	rep, err := MonteCarlo(context.Background(), g, sp, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := rep.Recovery
	if rec == nil || len(rec.Steps) != 6 {
		t.Fatalf("recovery = %+v, want 6 steps", rec)
	}
	if rec.HorizonMinutes != 180 {
		t.Fatalf("horizon = %v, want 3x mean = 180", rec.HorizonMinutes)
	}
	prev := rep.Down.Mean
	for i, st := range rec.Steps {
		if st.MeanDown > prev+1e-9 {
			t.Fatalf("step %d mean down %v grew past %v", i, st.MeanDown, prev)
		}
		prev = st.MeanDown
	}
	if rec.TimeToRecover.Max < rec.TimeToRecover.P50 {
		t.Fatalf("ttr summary inconsistent: %+v", rec.TimeToRecover)
	}
	if rec.TimeToRecover.Max == 0 {
		t.Fatal("no scenario recorded a recovery time")
	}
}

// TestSweepCancellation mirrors the deterministic engine's contract: a
// cancelled context aborts the sweep with the context error.
func TestSweepMonteCarloCancellation(t *testing.T) {
	g := testGraph()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MonteCarlo(ctx, g, &SweepSpec{Name: "c", Scenarios: 5000}, 2)
	if err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
}

func TestSummarizePercentiles(t *testing.T) {
	values := make([]int, 100)
	for i := range values {
		values[i] = i + 1 // 1..100
	}
	d := summarize(values)
	if d.P50 != 50 || d.P90 != 90 || d.P99 != 99 || d.Max != 100 || d.Mean != 50.5 {
		t.Fatalf("summary = %+v", d)
	}
	if z := summarize(nil); z != (DistSummary{}) {
		t.Fatalf("empty summary = %+v", z)
	}
}
