package analysis

import (
	"context"
	"fmt"
	"io"

	"depscope/internal/core"
	"depscope/internal/incident"
	"depscope/internal/telemetry"
)

// Risk-analysis integration: the Monte-Carlo sweep plumbing the depscope
// -sweep mode and the depserver /v1/sweep endpoint share, and the greedy
// mitigation optimizer surfaced as -mitigate, /v1/mitigation, and a full-
// report section. docs/risk.md narrates the end-to-end workflow.

// Mitigation-optimizer metrics, registered at package init alongside the
// per-figure render histograms.
var (
	mitigateRuns          = telemetry.Counter("mitigate_runs_total", "mitigation plans computed")
	mitigateLastReduction = telemetry.Gauge("mitigate_last_reduction", "aggregate-impact reduction (site-provider pairs) of the most recent mitigation plan")
	mitigateLastOptions   = telemetry.Gauge("mitigate_last_options", "options selected by the most recent mitigation plan")
)

// MonteCarloSweep runs one Monte-Carlo sweep against the snapshot the spec
// names. workers < 1 means GOMAXPROCS.
func MonteCarloSweep(ctx context.Context, run *Run, sp *incident.SweepSpec, workers int) (*incident.SweepReport, error) {
	g, err := SnapshotGraph(run, sp.Snapshot)
	if err != nil {
		return nil, err
	}
	return incident.MonteCarlo(ctx, g, sp, workers)
}

// Mitigation computes a greedy K-option mitigation plan against the named
// snapshot under the full indirect traversal (the headline C_p/I_p view).
func Mitigation(run *Run, k int, snapshot string) (*core.MitigationPlan, error) {
	defer telemetry.StartSpan("analysis.mitigate").End()
	g, err := SnapshotGraph(run, snapshot)
	if err != nil {
		return nil, err
	}
	plan := g.MitigationPlan(k, core.AllIndirect())
	mitigateRuns.Inc()
	mitigateLastReduction.Set(int64(plan.Reduction()))
	mitigateLastOptions.Set(int64(len(plan.Options)))
	return plan, nil
}

// WriteMitigationText renders a mitigation plan for terminals — the backend
// of the depscope -mitigate mode and the full report's mitigation section.
func WriteMitigationText(w io.Writer, plan *core.MitigationPlan) {
	fmt.Fprintf(w, "mitigation plan: add a second provider to %d sites (of %d single-third candidates)\n",
		len(plan.Options), plan.Candidates)
	fmt.Fprintf(w, "aggregate impact sum_p |I_p|: %d -> %d (-%d site-provider pairs, %.1f%%)\n",
		plan.Before, plan.After, plan.Reduction(), 100*frac(plan.Reduction(), plan.Before))
	if len(plan.Options) == 0 {
		fmt.Fprintln(w, "no arrangement conversion reduces aggregate impact")
		return
	}
	fmt.Fprintf(w, "%4s %8s %-28s %-5s %-28s %6s %10s\n",
		"#", "rank", "site", "svc", "current sole provider", "gain", "cumulative")
	for i, o := range plan.Options {
		fmt.Fprintf(w, "%4d %8d %-28s %-5s %-28s %6d %10d\n",
			i+1, o.Rank, o.Site, o.Service, o.Provider, o.Gain, o.Cumulative)
	}
	if len(plan.ProviderDeltas) > 0 {
		fmt.Fprintln(w, "providers shrinking most:")
		fmt.Fprintf(w, "  %-28s %10s %10s\n", "provider", "|I| before", "|I| after")
		for _, d := range plan.ProviderDeltas {
			fmt.Fprintf(w, "  %-28s %10d %10d\n", d.Name, d.Before, d.After)
		}
	}
}

// reportMitigationK is the option budget of the full report's mitigation
// section: enough to show the shape of the frontier without drowning the
// tables around it.
const reportMitigationK = 25

// RenderMitigation prints the top-K mitigation plan for the 2020 snapshot;
// it runs as part of the full report so the prescriptive answer lands next
// to the descriptive C_p/I_p rankings.
func RenderMitigation(w io.Writer, run *Run) {
	header(w, "Mitigation: which sites should add a second provider (2020)")
	plan, err := Mitigation(run, reportMitigationK, "")
	if err != nil {
		fmt.Fprintf(w, "unavailable: %v\n", err)
		return
	}
	WriteMitigationText(w, plan)
}
