package incident

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"

	"depscope/internal/conc"
	"depscope/internal/core"
	"depscope/internal/telemetry"
)

// This file is the randomized half of the incident engine: instead of one
// worst-case scenario, a Monte-Carlo sweep samples thousands of correlated
// multi-provider failure draws and reports the *distribution* of damage —
// mean/P50/P90/P99/max sites down, per-provider attribution, and (optionally)
// time-to-recover curves. Failure probabilities are weighted by each
// provider's concentration C_p, so the sampler spends its draws where the
// paper says the risk lives; correlation groups model shared operating
// entities (one company, many provider identities) or whole-service storms.
//
// Determinism: scenario i draws from a generator seeded with mix(seed, i),
// so the report is byte-identical for a given seed regardless of worker
// count or scheduling. The deterministic-seed tests pin this.

// Monte-Carlo sweep metrics, registered at package init alongside the
// deterministic engine's counters.
var (
	sweepRuns      = telemetry.Counter("sweep_runs_total", "Monte-Carlo incident sweeps completed")
	sweepScenarios = telemetry.Counter("sweep_scenarios_total", "randomized failure scenarios sampled across all sweeps")
	sweepCascades  = telemetry.Counter("sweep_cascades_total", "outage cascades evaluated by sweeps (scenarios plus recovery checkpoints)")
	sweepLastP99   = telemetry.Gauge("sweep_last_p99_down", "P99 sites-down of the most recent Monte-Carlo sweep")
	sweepLastMax   = telemetry.Gauge("sweep_last_max_down", "max sites-down of the most recent Monte-Carlo sweep")
)

// SweepSpec is the Monte-Carlo sweep specification, the JSON document
// `depscope -sweep file.json` and `POST depserver /v1/sweep` accept.
// docs/risk.md documents the format with worked examples.
type SweepSpec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Snapshot selects the measured graph ("2016", "2020", empty = 2020);
	// resolved by the caller, like Scenario.Snapshot.
	Snapshot string `json:"snapshot,omitempty"`
	// Scenarios is the number of randomized draws; 0 means 1000.
	Scenarios int `json:"scenarios,omitempty"`
	// Seed drives every draw; 0 means 1. Same seed, same report.
	Seed int64 `json:"seed,omitempty"`
	// Service restricts the failure pool to one provider service type
	// ("dns", "cdn" or "ca"); empty pools all three.
	Service string `json:"service,omitempty"`
	// TopN bounds the pool to the N highest-C_p providers per service;
	// 0 means 100, negative means no bound.
	TopN int `json:"top_n,omitempty"`
	// BaseProb scales failure probabilities: provider i fails with
	// p_i = BaseProb * C_i * poolSize / ΣC (capped at 0.95), so the expected
	// number of failures per scenario is BaseProb × poolSize. 0 means 0.02.
	BaseProb float64 `json:"base_prob,omitempty"`
	// Severity and JointFailures mirror Scenario's outage knobs.
	Severity      float64 `json:"severity,omitempty"`
	JointFailures bool    `json:"joint_failures,omitempty"`
	// Via is the C_p/I_p traversal filter, as in Scenario.
	Via []string `json:"via,omitempty"`
	// Correlate groups pool members that fail together: "entity" (same
	// registrable domain, the paper's TLD/SOA rule) or "service". A group
	// fires with probability 1-Π(1-p_i) and takes every member down.
	// Empty means independent failures.
	Correlate string `json:"correlate,omitempty"`
	// Targets, when set, fixes the failure set: every scenario fails exactly
	// this selection (probability 1) and the randomness drives only the
	// recovery draws. With scenarios=1 this reproduces the deterministic
	// engine's outcome exactly.
	Targets *Targets `json:"targets,omitempty"`
	// Recovery, when set, layers time-to-recover curves on every scenario.
	Recovery *RecoverySpec `json:"recovery,omitempty"`
}

// RecoverySpec configures time-to-recover sampling: each failed provider
// draws an exponential recovery time and the cascade is re-evaluated at
// Steps checkpoints across a 3×mean horizon.
type RecoverySpec struct {
	// Steps is the number of checkpoints; 0 means 8, max 64.
	Steps int `json:"steps,omitempty"`
	// MeanMinutes is the mean of the exponential recovery-time draw;
	// 0 means 120.
	MeanMinutes float64 `json:"mean_minutes,omitempty"`
}

// ParseSweep decodes and validates a sweep document. Unknown fields and
// trailing data are rejected, like ParseScenario.
func ParseSweep(r io.Reader) (*SweepSpec, error) {
	var sp SweepSpec
	if err := decodeStrict(r, &sp, "sweep spec"); err != nil {
		return nil, err
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// Validate checks the spec for structural errors before any simulation.
func (sp *SweepSpec) Validate() error {
	if sp.Scenarios < 0 || sp.Scenarios > 200000 {
		return fmt.Errorf("incident: sweep scenarios %d out of range [0,200000]", sp.Scenarios)
	}
	if sp.BaseProb < 0 || sp.BaseProb > 1 {
		return fmt.Errorf("incident: sweep base_prob %v out of range [0,1]", sp.BaseProb)
	}
	if sp.Severity < 0 || sp.Severity > 1 {
		return fmt.Errorf("incident: severity %v out of range [0,1]", sp.Severity)
	}
	switch sp.Snapshot {
	case "", "2016", "2020":
	default:
		return fmt.Errorf("incident: unknown snapshot %q (want 2016 or 2020)", sp.Snapshot)
	}
	if sp.Service != "" {
		if _, err := parseService(sp.Service); err != nil {
			return err
		}
	}
	for _, v := range sp.Via {
		if _, err := parseService(v); err != nil {
			return err
		}
	}
	switch sp.Correlate {
	case "", "entity", "service":
	default:
		return fmt.Errorf("incident: unknown correlate %q (want entity or service)", sp.Correlate)
	}
	if sp.Targets != nil {
		if err := sp.Targets.validate(); err != nil {
			return err
		}
	}
	if sp.Recovery != nil {
		if sp.Recovery.Steps < 0 || sp.Recovery.Steps > 64 {
			return fmt.Errorf("incident: recovery steps %d out of range [0,64]", sp.Recovery.Steps)
		}
		if sp.Recovery.MeanMinutes < 0 {
			return fmt.Errorf("incident: recovery mean_minutes %v must not be negative", sp.Recovery.MeanMinutes)
		}
	}
	return nil
}

// Normalized accessors, mirroring Scenario's severity().

func (sp *SweepSpec) scenarios() int {
	if sp.Scenarios == 0 {
		return 1000
	}
	return sp.Scenarios
}

func (sp *SweepSpec) seed() int64 {
	if sp.Seed == 0 {
		return 1
	}
	return sp.Seed
}

func (sp *SweepSpec) topN() int {
	if sp.TopN == 0 {
		return 100
	}
	if sp.TopN < 0 {
		return 0 // TopProviders: n <= 0 returns all
	}
	return sp.TopN
}

func (sp *SweepSpec) baseProb() float64 {
	if sp.BaseProb == 0 {
		return 0.02
	}
	return sp.BaseProb
}

func (sp *SweepSpec) severity() float64 {
	if sp.Severity == 0 {
		return 1
	}
	return sp.Severity
}

func (r *RecoverySpec) steps() int {
	if r.Steps == 0 {
		return 8
	}
	return r.Steps
}

func (r *RecoverySpec) meanMinutes() float64 {
	if r.MeanMinutes == 0 {
		return 120
	}
	return r.MeanMinutes
}

// DistSummary summarizes one integer-valued per-scenario distribution with
// nearest-rank percentiles.
type DistSummary struct {
	Mean float64 `json:"mean"`
	P50  int     `json:"p50"`
	P90  int     `json:"p90"`
	P99  int     `json:"p99"`
	Max  int     `json:"max"`
}

// SweepAttribution is one provider's share of the sampled damage.
type SweepAttribution struct {
	Name string `json:"name"`
	// Failures counts the scenarios this provider failed in; FailRate is
	// Failures / Scenarios.
	Failures int     `json:"failures"`
	FailRate float64 `json:"fail_rate"`
	// MeanDown and MaxDown summarize total sites-down over the scenarios
	// this provider failed in (co-failures included — attribution, not
	// isolation).
	MeanDown float64 `json:"mean_down"`
	MaxDown  int     `json:"max_down"`
}

// RecoveryStep is the outage level at one checkpoint of the recovery
// horizon.
type RecoveryStep struct {
	Minutes  float64 `json:"minutes"`
	MeanDown float64 `json:"mean_down"`
	P99Down  int     `json:"p99_down"`
}

// RecoveryReport is the time-to-recover layer of a sweep report.
type RecoveryReport struct {
	MeanMinutes    float64        `json:"mean_minutes"`
	HorizonMinutes float64        `json:"horizon_minutes"`
	Steps          []RecoveryStep `json:"steps"`
	// TimeToRecover summarizes, in whole minutes, when each scenario's last
	// failed provider recovered.
	TimeToRecover DistSummary `json:"time_to_recover_minutes"`
}

// SweepReport is the aggregated outcome of one Monte-Carlo sweep.
type SweepReport struct {
	Name          string   `json:"name"`
	Description   string   `json:"description,omitempty"`
	Snapshot      string   `json:"snapshot,omitempty"`
	Scenarios     int      `json:"scenarios"`
	Seed          int64    `json:"seed"`
	PoolSize      int      `json:"pool_size"`
	Groups        int      `json:"groups"`
	Correlate     string   `json:"correlate,omitempty"`
	BaseProb      float64  `json:"base_prob"`
	Severity      float64  `json:"severity"`
	JointFailures bool     `json:"joint_failures,omitempty"`
	Via           []string `json:"via,omitempty"`
	// FixedTargets echoes the resolved fixed failure set when the spec
	// pinned one.
	FixedTargets []string `json:"fixed_targets,omitempty"`
	TotalSites   int      `json:"total_sites"`

	Down                 DistSummary        `json:"down"`
	Degraded             DistSummary        `json:"degraded"`
	FailuresPerScenario  DistSummary        `json:"failures_per_scenario"`
	ZeroFailureScenarios int                `json:"zero_failure_scenarios"`
	Attribution          []SweepAttribution `json:"attribution,omitempty"`
	Recovery             *RecoveryReport    `json:"recovery,omitempty"`
}

// mcCandidate is one pool member: a provider that may fail, with its draw
// probability and the key its correlation group hangs off.
type mcCandidate struct {
	name string
	id   int32
	conc int
	prob float64
}

// mcGroup is one correlated failure unit: the group fires with prob and
// every member fails together. Independent candidates are singleton groups.
type mcGroup struct {
	prob    float64
	members []int // indices into the pool
}

// mix is a splitmix64-style scramble of (seed, index) into one per-scenario
// source seed, so scenario i's stream is independent of every other and of
// worker scheduling.
func mix(seed, i int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// buildPool assembles the failure pool: fixed targets when the spec pins
// them, otherwise the top-N providers per in-scope service, with failure
// probability proportional to concentration.
func buildPool(g *core.Graph, sp *SweepSpec, opts core.TraversalOpts, sim *core.OutageSim) ([]mcCandidate, []string, error) {
	if sp.Targets != nil {
		names, err := ResolveTargets(g, *sp.Targets, opts)
		if err != nil {
			return nil, nil, err
		}
		pool := make([]mcCandidate, 0, len(names))
		for _, n := range names {
			if id, ok := sim.ProviderID(n); ok {
				pool = append(pool, mcCandidate{name: n, id: id, prob: 1})
			}
		}
		return pool, names, nil
	}

	services := core.Services
	if sp.Service != "" {
		svc, err := parseService(sp.Service)
		if err != nil {
			return nil, nil, err
		}
		services = []core.Service{svc}
	}
	byName := make(map[string]int) // name → pool index
	var pool []mcCandidate
	for _, svc := range services {
		for _, st := range g.TopProviders(svc, opts, false, sp.topN()) {
			if i, ok := byName[st.Name]; ok {
				if st.Concentration > pool[i].conc {
					pool[i].conc = st.Concentration
				}
				continue
			}
			id, ok := sim.ProviderID(st.Name)
			if !ok {
				continue
			}
			byName[st.Name] = len(pool)
			pool = append(pool, mcCandidate{name: st.Name, id: id, conc: st.Concentration})
		}
	}
	if len(pool) == 0 {
		return nil, nil, fmt.Errorf("incident: sweep pool is empty (no providers in scope)")
	}
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].conc != pool[j].conc {
			return pool[i].conc > pool[j].conc
		}
		return pool[i].name < pool[j].name
	})
	sumC := 0
	for _, c := range pool {
		sumC += c.conc
	}
	base := sp.baseProb()
	for i := range pool {
		p := base
		if sumC > 0 {
			p = base * float64(pool[i].conc) * float64(len(pool)) / float64(sumC)
		}
		pool[i].prob = math.Min(p, 0.95)
	}
	return pool, nil, nil
}

// buildGroups partitions the pool into correlated failure units.
func buildGroups(g *core.Graph, sp *SweepSpec, pool []mcCandidate) []mcGroup {
	key := func(c mcCandidate) string {
		switch sp.Correlate {
		case "entity":
			return entityOf(c.name)
		case "service":
			if p, ok := g.Providers[c.name]; ok {
				return p.Service.String()
			}
			return c.name
		}
		return c.name // independent: every candidate its own group
	}
	byKey := make(map[string]int)
	var groups []mcGroup
	for i, c := range pool {
		k := key(c)
		gi, ok := byKey[k]
		if !ok {
			gi = len(groups)
			byKey[k] = gi
			groups = append(groups, mcGroup{prob: 1})
		}
		groups[gi].members = append(groups[gi].members, i)
		groups[gi].prob *= 1 - c.prob
	}
	for i := range groups {
		groups[i].prob = 1 - groups[i].prob // P(group fires) = 1-Π(1-p_i)
	}
	return groups
}

// summarize computes a DistSummary over per-scenario values (not mutated;
// percentiles use a sorted copy and the nearest-rank rule).
func summarize(values []int) DistSummary {
	if len(values) == 0 {
		return DistSummary{}
	}
	sorted := make([]int, len(values))
	copy(sorted, values)
	sort.Ints(sorted)
	sum := 0
	for _, v := range sorted {
		sum += v
	}
	rank := func(q float64) int {
		i := int(math.Ceil(q*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i]
	}
	return DistSummary{
		Mean: float64(sum) / float64(len(sorted)),
		P50:  rank(0.50),
		P90:  rank(0.90),
		P99:  rank(0.99),
		Max:  sorted[len(sorted)-1],
	}
}

// mcChunk is one worker chunk's private accumulators, merged in chunk order
// after the fan-out so the report is independent of scheduling.
type mcChunk struct {
	failCount []int
	sumDown   []int
	maxDown   []int
	cascades  int
}

// MonteCarlo runs a seeded randomized failure sweep against g and aggregates
// the damage distribution. workers < 1 means GOMAXPROCS. The report is
// byte-identical for a given spec regardless of worker count.
func MonteCarlo(ctx context.Context, g *core.Graph, sp *SweepSpec, workers int) (*SweepReport, error) {
	defer telemetry.StartSpan("sweep.montecarlo").End()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	opts, err := viaTraversal(sp.Via)
	if err != nil {
		return nil, err
	}
	sim := g.OutageSim(opts)
	pool, fixed, err := buildPool(g, sp, opts, sim)
	if err != nil {
		return nil, err
	}
	groups := buildGroups(g, sp, pool)

	n := sp.scenarios()
	oo := core.OutageOpts{Severity: sp.severity(), JointFailures: sp.JointFailures}
	var (
		steps   int
		meanMin float64
		horizon float64
	)
	if sp.Recovery != nil {
		steps = sp.Recovery.steps()
		meanMin = sp.Recovery.meanMinutes()
		horizon = 3 * meanMin
	}

	// Per-scenario outputs, indexed by scenario so ordering never depends on
	// workers.
	downs := make([]int, n)
	degradeds := make([]int, n)
	nfails := make([]int, n)
	ttrMinutes := make([]int, n)
	var stepDowns [][]int // [step][scenario]
	for j := 0; j < steps; j++ {
		stepDowns = append(stepDowns, make([]int, n))
	}

	const chunkSize = 64
	nChunks := (n + chunkSize - 1) / chunkSize
	chunks := make([]mcChunk, nChunks)
	seed := sp.seed()

	err = conc.ForEach(ctx, nChunks, workers, conc.FailFast, func(ctx context.Context, ci int) error {
		acc := &chunks[ci]
		acc.failCount = make([]int, len(pool))
		acc.sumDown = make([]int, len(pool))
		acc.maxDown = make([]int, len(pool))
		var scratch core.SimScratch
		ids := make([]int32, 0, len(pool))
		failedIdx := make([]int, 0, len(pool))
		var recTimes []float64
		// One generator per chunk, reseeded per scenario: Seed restarts the
		// stream exactly as a fresh rand.NewSource(mix(seed, i)) would,
		// without allocating a ~5 KB source per scenario.
		rng := rand.New(rand.NewSource(0))
		lo, hi := ci*chunkSize, (ci+1)*chunkSize
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			rng.Seed(mix(seed, int64(i)))
			ids = ids[:0]
			failedIdx = failedIdx[:0]
			for _, grp := range groups {
				if rng.Float64() < grp.prob {
					for _, m := range grp.members {
						ids = append(ids, pool[m].id)
						failedIdx = append(failedIdx, m)
					}
				}
			}
			down, degraded := sim.RunCounts(ids, oo, &scratch)
			acc.cascades++
			downs[i] = down
			degradeds[i] = degraded
			nfails[i] = len(ids)
			for _, m := range failedIdx {
				acc.failCount[m]++
				acc.sumDown[m] += down
				if down > acc.maxDown[m] {
					acc.maxDown[m] = down
				}
			}

			if steps > 0 {
				// Draw a recovery time per failed provider, in pool order, so
				// the rng stream is scheduling-independent; then re-run the
				// cascade with only the still-down providers at each
				// checkpoint.
				recTimes = recTimes[:0]
				ttr := 0.0
				for range failedIdx {
					r := rng.ExpFloat64() * meanMin
					recTimes = append(recTimes, r)
					if r > ttr {
						ttr = r
					}
				}
				ttrMinutes[i] = int(math.Round(ttr))
				for j := 0; j < steps; j++ {
					t := horizon * float64(j+1) / float64(steps)
					stillDown := ids[:0:0]
					for k, m := range failedIdx {
						if recTimes[k] > t {
							stillDown = append(stillDown, pool[m].id)
						}
					}
					d, _ := sim.RunCounts(stillDown, oo, &scratch)
					acc.cascades++
					stepDowns[j][i] = d
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Merge chunk accumulators in chunk order.
	failCount := make([]int, len(pool))
	sumDown := make([]int, len(pool))
	maxDown := make([]int, len(pool))
	cascades := 0
	for _, acc := range chunks {
		cascades += acc.cascades
		for i := range pool {
			failCount[i] += acc.failCount[i]
			sumDown[i] += acc.sumDown[i]
			if acc.maxDown[i] > maxDown[i] {
				maxDown[i] = acc.maxDown[i]
			}
		}
	}

	rep := &SweepReport{
		Name:          sp.Name,
		Description:   sp.Description,
		Snapshot:      sp.Snapshot,
		Scenarios:     n,
		Seed:          seed,
		PoolSize:      len(pool),
		Groups:        len(groups),
		Correlate:     sp.Correlate,
		BaseProb:      sp.baseProb(),
		Severity:      sp.severity(),
		JointFailures: sp.JointFailures,
		Via:           sp.Via,
		FixedTargets:  fixed,
		TotalSites:    len(g.Sites),
		Down:          summarize(downs),
		Degraded:      summarize(degradeds),
	}
	rep.FailuresPerScenario = summarize(nfails)
	for _, f := range nfails {
		if f == 0 {
			rep.ZeroFailureScenarios++
		}
	}

	// Attribution: the providers that failed most often, with the damage
	// observed alongside them. Ties break by name for determinism.
	order := make([]int, 0, len(pool))
	for i := range pool {
		if failCount[i] > 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if failCount[i] != failCount[j] {
			return failCount[i] > failCount[j]
		}
		if sumDown[i] != sumDown[j] {
			return sumDown[i] > sumDown[j]
		}
		return pool[i].name < pool[j].name
	})
	if len(order) > 15 {
		order = order[:15]
	}
	for _, i := range order {
		rep.Attribution = append(rep.Attribution, SweepAttribution{
			Name:     pool[i].name,
			Failures: failCount[i],
			FailRate: float64(failCount[i]) / float64(n),
			MeanDown: float64(sumDown[i]) / float64(failCount[i]),
			MaxDown:  maxDown[i],
		})
	}

	if steps > 0 {
		rec := &RecoveryReport{MeanMinutes: meanMin, HorizonMinutes: horizon}
		for j := 0; j < steps; j++ {
			s := summarize(stepDowns[j])
			rec.Steps = append(rec.Steps, RecoveryStep{
				Minutes:  horizon * float64(j+1) / float64(steps),
				MeanDown: s.Mean,
				P99Down:  s.P99,
			})
		}
		rec.TimeToRecover = summarize(ttrMinutes)
		rep.Recovery = rec
	}

	sweepRuns.Inc()
	sweepScenarios.Add(int64(n))
	sweepCascades.Add(int64(cascades))
	sweepLastP99.Set(int64(rep.Down.P99))
	sweepLastMax.Set(int64(rep.Down.Max))
	return rep, nil
}

// WriteText renders the sweep report for terminals — the backend of the
// depscope -sweep mode.
func (r *SweepReport) WriteText(w io.Writer) {
	title := r.Name
	if title == "" {
		title = "sweep"
	}
	fmt.Fprintf(w, "monte-carlo sweep: %s", title)
	if r.Snapshot != "" {
		fmt.Fprintf(w, " (snapshot %s)", r.Snapshot)
	}
	fmt.Fprintln(w)
	if r.Description != "" {
		fmt.Fprintf(w, "%s\n", r.Description)
	}
	fmt.Fprintf(w, "scenarios: %d  seed: %d  pool: %d providers", r.Scenarios, r.Seed, r.PoolSize)
	if r.Correlate != "" {
		fmt.Fprintf(w, " in %d %s groups", r.Groups, r.Correlate)
	}
	fmt.Fprintln(w)
	if len(r.FixedTargets) > 0 {
		fmt.Fprintf(w, "fixed targets: %s\n", strings.Join(r.FixedTargets, ", "))
	} else {
		fmt.Fprintf(w, "base failure probability: %.3f (C_p-weighted)\n", r.BaseProb)
	}
	if len(r.Via) > 0 {
		fmt.Fprintf(w, "via: %s\n", strings.Join(r.Via, ", "))
	}
	if r.Severity != 1 {
		fmt.Fprintf(w, "severity: %.2f\n", r.Severity)
	}
	if r.JointFailures {
		fmt.Fprintln(w, "joint failures: redundant arrangements exhaust when all providers fail")
	}
	fmt.Fprintln(w)

	dist := func(label string, d DistSummary) {
		fmt.Fprintf(w, "  %-22s mean %8.2f   p50 %6d   p90 %6d   p99 %6d   max %6d\n",
			label, d.Mean, d.P50, d.P90, d.P99, d.Max)
	}
	fmt.Fprintf(w, "impact distribution over %d sites:\n", r.TotalSites)
	dist("sites down", r.Down)
	dist("sites degraded", r.Degraded)
	dist("failures/scenario", r.FailuresPerScenario)
	fmt.Fprintf(w, "  %-22s %d of %d scenarios (%.1f%%)\n", "zero-failure draws",
		r.ZeroFailureScenarios, r.Scenarios, pctOf(r.ZeroFailureScenarios, r.Scenarios))

	if len(r.Attribution) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "attribution (scenarios failed in, sites down alongside):")
		fmt.Fprintf(w, "  %-28s %9s %9s %10s %8s\n", "provider", "failures", "rate", "mean down", "max")
		for _, a := range r.Attribution {
			fmt.Fprintf(w, "  %-28s %9d %8.1f%% %10.1f %8d\n",
				a.Name, a.Failures, 100*a.FailRate, a.MeanDown, a.MaxDown)
		}
	}

	if r.Recovery != nil {
		fmt.Fprintln(w)
		fmt.Fprintf(w, "recovery (exponential, mean %.0f min, horizon %.0f min):\n",
			r.Recovery.MeanMinutes, r.Recovery.HorizonMinutes)
		fmt.Fprintf(w, "  %10s %12s %10s\n", "t (min)", "mean down", "p99 down")
		for _, st := range r.Recovery.Steps {
			fmt.Fprintf(w, "  %10.0f %12.2f %10d\n", st.Minutes, st.MeanDown, st.P99Down)
		}
		t := r.Recovery.TimeToRecover
		fmt.Fprintf(w, "  time to full recovery: mean %.1f min   p50 %d   p99 %d   max %d\n",
			t.Mean, t.P50, t.P99, t.Max)
	}
}
