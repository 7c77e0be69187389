// Package incident is the what-if outage engine: it plays scenario
// specifications — one provider, an entity group, a service blackout, a
// top-K-by-C_p set, optionally partial or staged — against a measured
// dependency graph and reports what state every website ends up in.
//
// The propagation itself lives in core (Graph.OutageSim), built on the
// metrics engine's provider universe and reverse edges so a single-provider
// scenario at full severity reproduces I_p membership exactly; this package
// adds the scenario vocabulary (target resolution, staged timelines,
// severity), aggregation into per-stage reports with resilience scoring,
// parallel fan-out of scenario sweeps over the shared worker pool, and the
// Dyn-replay preset that re-prints the paper's motivating incident.
//
// Everything is telemetry-instrumented: scenario and sweep spans, stage and
// site counters, and last-run outcome gauges (see docs/observability.md).
package incident

import (
	"context"
	"fmt"

	"depscope/internal/conc"
	"depscope/internal/core"
	"depscope/internal/telemetry"
)

// Engine metrics, registered once at package init so a /metrics scrape
// shows the catalog even before the first scenario runs.
var (
	scenariosRun   = telemetry.Counter("incident_scenarios_total", "outage scenarios simulated")
	stagesRun      = telemetry.Counter("incident_stages_total", "scenario stages simulated (one cumulative cascade each)")
	sitesEvaluated = telemetry.Counter("incident_sites_evaluated_total", "site outcomes classified across all scenario stages")
	targetsFailed  = telemetry.Counter("incident_targets_failed_total", "providers failed as scenario targets")
	lastDown       = telemetry.Gauge("incident_last_down_sites", "sites down at the end of the most recently simulated scenario")
	lastDegraded   = telemetry.Gauge("incident_last_degraded_sites", "sites degraded at the end of the most recently simulated scenario")
	lastUnaffected = telemetry.Gauge("incident_last_unaffected_sites", "sites unaffected at the end of the most recently simulated scenario")
)

// Simulate plays one scenario against g and aggregates the outcome. The
// caller chooses g to match sc.Snapshot. Stages accumulate: each stage
// re-simulates the union of all targets so far, so the report shows the
// incident growing wave by wave.
func Simulate(ctx context.Context, g *core.Graph, sc *Scenario) (*Report, error) {
	defer telemetry.StartSpan("incident.scenario").End()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	opts, err := sc.traversal()
	if err != nil {
		return nil, err
	}
	sim := g.OutageSim(opts)
	rep := &Report{
		Scenario:      sc.Name,
		Description:   sc.Description,
		Snapshot:      sc.Snapshot,
		Severity:      sc.severity(),
		JointFailures: sc.JointFailures,
		Via:           sc.Via,
		TotalSites:    len(g.Sites),
	}

	var (
		cumulative []string
		seen       = make(map[string]bool)
		prev       []core.SiteOutcome
		final      *core.OutageResult
	)
	for _, st := range sc.stages() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		resolved, err := ResolveTargets(g, st.Targets, opts)
		if err != nil {
			return nil, fmt.Errorf("incident: scenario %q stage %q: %w", sc.Name, st.Name, err)
		}
		var added []string
		for _, t := range resolved {
			if !seen[t] {
				seen[t] = true
				cumulative = append(cumulative, t)
				added = append(added, t)
			}
		}
		res := sim.Run(cumulative, core.OutageOpts{
			Severity:      sc.severity(),
			JointFailures: sc.JointFailures,
		})
		stagesRun.Inc()
		sitesEvaluated.Add(int64(len(g.Sites)))
		targetsFailed.Add(int64(len(added)))
		rep.Stages = append(rep.Stages, buildStage(g, st.Name, cumulative, added, res, prev))
		prev = res.Outcomes
		final = res
	}

	scenariosRun.Inc()
	if final != nil {
		lastDown.Set(int64(final.Down))
		lastDegraded.Set(int64(final.Degraded))
		lastUnaffected.Set(int64(final.Unaffected))
	}

	// A single-provider full-severity scenario must reproduce the metric
	// engine's I_p exactly — membership, not just count. Record the check
	// so every report carries its own consistency proof. Equal sizes plus
	// I_p ⊆ down make the sets equal, so the check costs O(|I_p|).
	if len(cumulative) == 1 && rep.Severity == 1 && final != nil {
		p := cumulative[0]
		impact := g.ImpactSet(p, opts)
		match := len(impact) == final.Down
		if match {
			for name := range impact {
				if i, ok := g.SiteIndex(name); !ok || final.Outcomes[i] != core.SiteDown {
					match = false
					break
				}
			}
		}
		rep.Validation = &Validation{
			Provider: p,
			Impact:   len(impact),
			SimDown:  final.Down,
			Match:    match,
		}
	}
	return rep, nil
}

// Sweep simulates scenarios in parallel over the shared worker pool
// (workers < 1 means GOMAXPROCS) and returns one report per scenario, in
// order. The first scenario error aborts the sweep; cancellation is prompt
// and surfaces as an error satisfying errors.Is(err, ctx.Err()).
func Sweep(ctx context.Context, g *core.Graph, scenarios []*Scenario, workers int) ([]*Report, error) {
	defer telemetry.StartSpan("incident.sweep").End()
	reports := make([]*Report, len(scenarios))
	err := conc.ForEach(ctx, len(scenarios), workers, conc.FailFast, func(ctx context.Context, i int) error {
		rep, err := Simulate(ctx, g, scenarios[i])
		if err != nil {
			return err
		}
		reports[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reports, nil
}
