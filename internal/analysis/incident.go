package analysis

import (
	"context"
	"fmt"
	"io"

	"depscope/internal/core"
	"depscope/internal/incident"
)

// Incident-engine integration: the Dyn-replay table of the full report, and
// the snapshot plumbing the depscope -incident mode and the depserver
// /incident endpoint share.

// SnapshotGraph resolves an incident scenario's snapshot spec ("2016",
// "2020", or empty for 2020) to the measured graph of this run.
func SnapshotGraph(run *Run, snapshot string) (*core.Graph, error) {
	switch snapshot {
	case "2016":
		if run.Y2016 == nil {
			return nil, fmt.Errorf("analysis: the 2016 snapshot was not measured in this run")
		}
		return run.Y2016.Graph, nil
	case "", "2020":
		if run.Y2020 == nil {
			return nil, fmt.Errorf("analysis: the 2020 snapshot was not measured in this run")
		}
		return run.Y2020.Graph, nil
	}
	return nil, fmt.Errorf("analysis: unknown snapshot %q (want 2016 or 2020)", snapshot)
}

// SimulateIncident plays one scenario against the snapshot it names.
func SimulateIncident(ctx context.Context, run *Run, sc *incident.Scenario) (*incident.Report, error) {
	g, err := SnapshotGraph(run, sc.Snapshot)
	if err != nil {
		return nil, err
	}
	return incident.Simulate(ctx, g, sc)
}

// DynReplay plays the incident engine's Dyn-replay preset: fail Dyn
// (dynect.net) against the 2016 snapshot — the paper's motivating incident
// (§2), now as a dynamic simulation instead of a static I_p query.
func DynReplay(ctx context.Context, run *Run) (*incident.Report, error) {
	sc, ok := incident.Preset("dyn-replay")
	if !ok {
		return nil, fmt.Errorf("analysis: dyn-replay preset missing")
	}
	return SimulateIncident(ctx, run, sc)
}

// RenderDynReplay prints the Dyn-replay incident table; it runs as part of
// the full report so the replay lands in every report artifact.
func RenderDynReplay(w io.Writer, run *Run) {
	header(w, "Incident replay: the 2016 Mirai-Dyn outage (what-if simulation)")
	rep, err := DynReplay(context.Background(), run)
	if err != nil {
		fmt.Fprintf(w, "unavailable: %v\n", err)
		return
	}
	rep.WriteText(w)
}
