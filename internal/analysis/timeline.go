package analysis

import (
	"fmt"
	"io"
	"text/tabwriter"

	"depscope/internal/core"
	"depscope/internal/strictjson"
)

// Timelines replay an ordered stream of graph deltas against a measured
// snapshot and record how the ecosystem's dependency structure evolves step
// by step — the continuous view between the paper's two point-in-time
// snapshots. Each step applies its delta incrementally (the metrics engine
// is carried across every Apply), so a timeline over a 100K-site graph costs
// one measurement run plus cheap per-step patches, not one run per step.

// DeltaStep is one labeled edit in a delta stream.
type DeltaStep struct {
	// Label names the step in the rendered table (e.g. "post-Mirai exodus").
	Label string `json:"label,omitempty"`
	// Delta is the edit, in the core wire format (see internal/core
	// delta_json.go). Unknown fields are rejected.
	Delta core.Delta `json:"delta"`
}

// DeltaStream is a replayable sequence of deltas.
type DeltaStream struct {
	// Base names the measured snapshot the replay starts from ("2016" or
	// "2020"); empty means 2016 — timelines evolve forward from the earlier
	// world.
	Base string `json:"base,omitempty"`
	// Steps are applied in order, each on the previous step's graph.
	Steps []DeltaStep `json:"steps"`
}

// ParseDeltaStream decodes a delta stream, rejecting unknown fields at every
// level (the nested deltas use the strict core codec).
func ParseDeltaStream(r io.Reader) (*DeltaStream, error) {
	var ds DeltaStream
	if err := strictjson.Decode(r, &ds); err != nil {
		return nil, fmt.Errorf("decode delta stream: %w", err)
	}
	return &ds, nil
}

// TimelineStep is one row of a replayed timeline: the graph state after the
// step's delta, plus what the application itself touched.
type TimelineStep struct {
	// Label is the step's label ("base" for the starting snapshot).
	Label string `json:"label"`
	// Sites and CriticalSites describe the universe after the step:
	// CriticalSites counts sites with at least one (transitive) critical
	// dependency.
	Sites         int `json:"sites"`
	CriticalSites int `json:"critical_sites"`
	// TopDNS is the highest-concentration DNS provider and its C_p/I_p under
	// the full indirect traversal — the paper's headline exposure number.
	TopDNS       string `json:"top_dns,omitempty"`
	TopDNSConc   int    `json:"top_dns_concentration,omitempty"`
	TopDNSImpact int    `json:"top_dns_impact,omitempty"`
	// Stats reports what the delta touched (zero for the base row).
	Stats core.ApplyStats `json:"stats"`
	// Changed counts providers whose C_p or I_p moved relative to the
	// previous step.
	Changed int `json:"changed_providers"`
}

// Timeline replays stream against the named base snapshot of run and returns
// one row per state: the base itself, then one per step. The base graph is
// never mutated; each step's graph shares untouched nodes with its
// predecessor.
func Timeline(run *Run, stream *DeltaStream) ([]TimelineStep, error) {
	base := stream.Base
	if base == "" {
		base = "2016"
	}
	g, err := SnapshotGraph(run, base)
	if err != nil {
		return nil, err
	}
	rows := make([]TimelineStep, 0, len(stream.Steps)+1)
	rows = append(rows, timelineRow("base ("+base+")", g, core.ApplyStats{}, 0))
	for i, step := range stream.Steps {
		label := step.Label
		if label == "" {
			label = fmt.Sprintf("step %d", i+1)
		}
		ng, stats, err := g.Apply(step.Delta)
		if err != nil {
			return nil, fmt.Errorf("timeline step %d (%s): %w", i+1, label, err)
		}
		diff := DiffGraphs(g, ng)
		rows = append(rows, timelineRow(label, ng, stats, len(diff.Providers)))
		g = ng
	}
	return rows, nil
}

func timelineRow(label string, g *core.Graph, stats core.ApplyStats, changed int) TimelineStep {
	row := TimelineStep{
		Label:   label,
		Sites:   len(g.Sites),
		Stats:   stats,
		Changed: changed,
	}
	for _, n := range g.CriticalDepsPerSite(true) {
		if n > 0 {
			row.CriticalSites++
		}
	}
	if top := g.TopProviders(core.DNS, core.AllIndirect(), false, 1); len(top) > 0 {
		row.TopDNS = top[0].Name
		row.TopDNSConc = top[0].Concentration
		row.TopDNSImpact = top[0].Impact
	}
	return row
}

// RenderTimeline writes the evolution table.
func RenderTimeline(w io.Writer, rows []TimelineStep) {
	fmt.Fprintf(w, "Timeline: dependency evolution over %d steps\n", max(len(rows)-1, 0))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "step\tsites\tcritical\ttop DNS provider\tC_p\tI_p\tΔproviders\tdirty\tpatched")
	for i, r := range rows {
		pct := 0.0
		if r.Sites > 0 {
			pct = 100 * float64(r.CriticalSites) / float64(r.Sites)
		}
		changed, dirty, patched := "-", "-", "-"
		if i > 0 {
			changed = fmt.Sprint(r.Changed)
			dirty = fmt.Sprint(r.Stats.DirtyNames)
			if r.Stats.Rebuilt {
				patched = "rebuilt"
			} else {
				patched = fmt.Sprint(r.Stats.PatchedEntries)
			}
		}
		fmt.Fprintf(tw, "%s\t%d\t%d (%.1f%%)\t%s\t%d\t%d\t%s\t%s\t%s\n",
			r.Label, r.Sites, r.CriticalSites, pct,
			r.TopDNS, r.TopDNSConc, r.TopDNSImpact,
			changed, dirty, patched)
	}
	tw.Flush()
	if len(rows) > 1 {
		first, last := rows[0], rows[len(rows)-1]
		fmt.Fprintf(w, "net: sites %+d, critical sites %+d, top-DNS C_p %d → %d\n",
			last.Sites-first.Sites, last.CriticalSites-first.CriticalSites,
			first.TopDNSConc, last.TopDNSConc)
	}
}
