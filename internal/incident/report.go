package incident

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"depscope/internal/core"
)

// Report is the aggregated outcome of one scenario, JSON-serializable for
// the depserver /incident endpoint and renderable as text for depscope.
type Report struct {
	Scenario      string   `json:"scenario"`
	Description   string   `json:"description,omitempty"`
	Snapshot      string   `json:"snapshot,omitempty"`
	Severity      float64  `json:"severity"`
	JointFailures bool     `json:"joint_failures,omitempty"`
	Via           []string `json:"via,omitempty"`
	TotalSites    int      `json:"total_sites"`
	// Stages holds one entry per simulated stage (a single entry for an
	// unstaged scenario); the last entry is the final state.
	Stages []StageReport `json:"stages"`
	// Validation is present for single-provider full-severity scenarios:
	// the simulated down set checked against I_p membership.
	Validation *Validation `json:"validation,omitempty"`
}

// Validation records the I_p consistency check.
type Validation struct {
	Provider string `json:"provider"`
	Impact   int    `json:"impact"`
	SimDown  int    `json:"simulated_down"`
	Match    bool   `json:"match"`
}

// StageReport aggregates one stage's cumulative outcome.
type StageReport struct {
	Name string `json:"name"`
	// Targets is the cumulative resolved target list; NewTargets the ones
	// this stage added.
	Targets    []string `json:"targets"`
	NewTargets []string `json:"new_targets,omitempty"`

	Down       int `json:"down"`
	Degraded   int `json:"degraded"`
	Unaffected int `json:"unaffected"`
	// NewlyDown counts sites down now that were not down after the
	// previous stage (everything, for the first stage).
	NewlyDown int `json:"newly_down"`
	// DirectDown / CollateralDown split the down sites into direct target
	// users versus sites reached only through dependency chains.
	DirectDown     int `json:"direct_down"`
	CollateralDown int `json:"collateral_down"`

	// LostByService / DegradedByService count sites that lost (resp. had
	// impaired) each service, keyed "DNS"/"CDN"/"CA".
	LostByService     map[string]int `json:"lost_by_service,omitempty"`
	DegradedByService map[string]int `json:"degraded_by_service,omitempty"`

	// DownByBand buckets down sites by rank band (the Figures 2–4 bands:
	// top scale/1000, /100, /10, the full list).
	DownByBand [4]BandCount `json:"down_by_band"`

	// CascadedProviders lists providers taken down beyond the targets —
	// the fallen intermediaries; DegradedProviders the impaired ones.
	CascadedProviders []string `json:"cascaded_providers,omitempty"`
	DegradedProviders []string `json:"degraded_providers,omitempty"`

	// TopDownSites samples up to 10 down sites by rank.
	TopDownSites []string `json:"top_down_sites,omitempty"`

	// MeanResilience averages the per-site resilience score (1 = untouched,
	// 0 = every consumed service lost); ResilienceDist buckets it like the
	// §8.3 defense-metric distribution.
	MeanResilience float64                     `json:"mean_resilience"`
	ResilienceDist core.RobustnessDistribution `json:"resilience_dist"`
}

// BandCount is one rank band's down-site count.
type BandCount struct {
	Label string `json:"label"`
	Total int    `json:"total"`
	Down  int    `json:"down"`
}

// buildStage aggregates one cumulative simulation result.
func buildStage(g *core.Graph, name string, targets, added []string, res *core.OutageResult, prev []core.SiteOutcome) StageReport {
	scale := len(g.Sites)
	sr := StageReport{
		Name:       name,
		Targets:    append([]string(nil), targets...),
		NewTargets: append([]string(nil), added...),
		Down:       res.Down,
		Degraded:   res.Degraded,
		Unaffected: res.Unaffected,
	}
	sort.Strings(sr.Targets)

	for b := range sr.DownByBand {
		sr.DownByBand[b].Label = "top " + core.BandTop(b, scale)
	}
	var downSites []*core.Site
	resSum := 0.0
	for i, s := range g.Sites {
		resSum += res.Resilience[i]
		sr.ResilienceDist.Add(res.Resilience[i])
		b := core.BandOf(s.Rank, scale)
		sr.DownByBand[b].Total++
		if res.Outcomes[i] != core.SiteDown {
			continue
		}
		sr.DownByBand[b].Down++
		downSites = append(downSites, s)
		if res.Direct[i] {
			sr.DirectDown++
		} else {
			sr.CollateralDown++
		}
		if prev == nil || prev[i] != core.SiteDown {
			sr.NewlyDown++
		}
	}
	if scale > 0 {
		sr.MeanResilience = resSum / float64(scale)
	} else {
		sr.MeanResilience = 1
	}

	sort.Slice(downSites, func(i, j int) bool { return downSites[i].Rank < downSites[j].Rank })
	for i := 0; i < len(downSites) && i < 10; i++ {
		sr.TopDownSites = append(sr.TopDownSites, downSites[i].Name)
	}

	targetSet := make(map[string]bool, len(targets))
	for _, t := range targets {
		targetSet[t] = true
	}
	for _, p := range res.DownProviders {
		if !targetSet[p] {
			sr.CascadedProviders = append(sr.CascadedProviders, p)
		}
	}
	sr.DegradedProviders = append([]string(nil), res.DegradedProviders...)

	for svc, n := range res.LostByService {
		if sr.LostByService == nil {
			sr.LostByService = make(map[string]int)
		}
		sr.LostByService[svc.String()] = n
	}
	for svc, n := range res.DegradedByService {
		if sr.DegradedByService == nil {
			sr.DegradedByService = make(map[string]int)
		}
		sr.DegradedByService[svc.String()] = n
	}
	return sr
}

// Final returns the last stage — the scenario's end state.
func (r *Report) Final() *StageReport {
	if len(r.Stages) == 0 {
		return nil
	}
	return &r.Stages[len(r.Stages)-1]
}

func pctOf(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// WriteText renders the report for terminals — the backend of the depscope
// -incident mode and the analysis Dyn-replay table.
func (r *Report) WriteText(w io.Writer) {
	title := r.Scenario
	if title == "" {
		title = "incident"
	}
	fmt.Fprintf(w, "incident scenario: %s", title)
	if r.Snapshot != "" {
		fmt.Fprintf(w, " (snapshot %s)", r.Snapshot)
	}
	fmt.Fprintln(w)
	if r.Description != "" {
		fmt.Fprintf(w, "%s\n", r.Description)
	}
	mode := "full outage"
	if r.Severity < 1 {
		mode = fmt.Sprintf("partial outage, severity %.2f", r.Severity)
	}
	if r.JointFailures {
		mode += ", joint failures (redundancy can exhaust)"
	}
	via := "all services"
	if len(r.Via) > 0 {
		via = strings.Join(r.Via, "+")
	}
	fmt.Fprintf(w, "mode: %s; cascades via %s; %d sites evaluated\n", mode, via, r.TotalSites)

	for i := range r.Stages {
		st := &r.Stages[i]
		if len(r.Stages) > 1 {
			fmt.Fprintf(w, "\nstage %d/%d: %s (+%d targets, %d total)\n",
				i+1, len(r.Stages), st.Name, len(st.NewTargets), len(st.Targets))
		} else {
			fmt.Fprintf(w, "targets (%d): %s\n", len(st.Targets), sample(st.Targets, 8))
		}
		fmt.Fprintf(w, "  down %d (%.1f%%)   degraded %d (%.1f%%)   unaffected %d (%.1f%%)\n",
			st.Down, pctOf(st.Down, r.TotalSites),
			st.Degraded, pctOf(st.Degraded, r.TotalSites),
			st.Unaffected, pctOf(st.Unaffected, r.TotalSites))
		if len(r.Stages) > 1 {
			fmt.Fprintf(w, "  newly down this stage: %d\n", st.NewlyDown)
		}
		if st.Down > 0 {
			fmt.Fprintf(w, "  down by blast path: %d direct, %d collateral (via dependency chains)\n",
				st.DirectDown, st.CollateralDown)
		}
		if len(st.LostByService)+len(st.DegradedByService) > 0 {
			fmt.Fprintf(w, "  by service:")
			// AllServices so chain (Resource) losses print; zero-count
			// services are skipped, keeping chains-off reports unchanged.
			for _, svc := range core.AllServices {
				lost, deg := st.LostByService[svc.String()], st.DegradedByService[svc.String()]
				if lost == 0 && deg == 0 {
					continue
				}
				fmt.Fprintf(w, "  %s lost=%d degraded=%d", svc, lost, deg)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "  down by rank band:")
		for _, b := range st.DownByBand {
			fmt.Fprintf(w, "  %s %d/%d", b.Label, b.Down, b.Total)
		}
		fmt.Fprintln(w)
		if len(st.CascadedProviders) > 0 {
			fmt.Fprintf(w, "  providers taken down by the cascade: %s\n", sample(st.CascadedProviders, 8))
		}
		if len(st.DegradedProviders) > 0 {
			fmt.Fprintf(w, "  providers degraded: %s\n", sample(st.DegradedProviders, 8))
		}
		if len(st.TopDownSites) > 0 {
			fmt.Fprintf(w, "  highest-ranked sites down: %s\n", strings.Join(st.TopDownSites, " "))
		}
		d := st.ResilienceDist
		fmt.Fprintf(w, "  resilience: mean %.3f  (score 0: %d, (0,0.5]: %d, (0.5,1): %d, 1: %d)\n",
			st.MeanResilience, d.Zero, d.Low, d.High, d.Full)
	}

	if r.Validation != nil {
		v := r.Validation
		verdict := "MATCH"
		if !v.Match {
			verdict = "MISMATCH"
		}
		fmt.Fprintf(w, "validation: simulated down set vs I_p(%s) = %d vs %d [%s]\n",
			v.Provider, v.SimDown, v.Impact, verdict)
	}
}

// sample joins up to n names, eliding the rest with a count.
func sample(names []string, n int) string {
	if len(names) <= n {
		return strings.Join(names, " ")
	}
	return fmt.Sprintf("%s ... and %d more", strings.Join(names[:n], " "), len(names)-n)
}
