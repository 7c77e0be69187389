package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"depscope/internal/core"
)

// Extensions beyond the paper's tables: the §8.3 robustness metric, the
// what-if outage query, DOT export and a machine-readable JSON summary.

// OutageReport answers "what if provider X goes down?" — the question the
// incidents of §2 pose.
type OutageReport struct {
	Provider string
	// Direct is the number of sites critically dependent through direct use.
	Direct int
	// Transitive includes inter-service chains.
	Transitive int
	// AffectedProviders lists providers critically dependent on the target.
	AffectedProviders []string
	// SampleSites are up to 10 affected sites (rank order).
	SampleSites []string
}

// Outage computes the blast radius of one provider in the 2020 snapshot
// from single-target outage simulations, whose down sets are I_p by
// construction: Direct under DirectOnly, Transitive and SampleSites under
// AllIndirect.
func Outage(run *Run, provider string) OutageReport {
	g := run.Y2020.Graph
	targets := []string{provider}
	res := g.OutageSim(core.AllIndirect()).Run(targets, core.OutageOpts{})
	rep := OutageReport{
		Provider:   provider,
		Direct:     g.OutageSim(core.DirectOnly()).Run(targets, core.OutageOpts{}).Down,
		Transitive: res.Down,
		// One hop only: the simulator's DownProviders is the whole cascade.
		AffectedProviders: g.CriticalDependents(provider),
	}
	var sites []*core.Site
	for i, s := range g.Sites {
		if res.Outcomes[i] == core.SiteDown {
			sites = append(sites, s)
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].Rank < sites[j].Rank })
	for i := 0; i < len(sites) && i < 10; i++ {
		rep.SampleSites = append(rep.SampleSites, sites[i].Name)
	}
	return rep
}

// RenderOutage prints an outage report. A provider the 2020 snapshot does
// not know is an error, not an empty report.
func RenderOutage(w io.Writer, run *Run, provider string) error {
	if !run.Y2020.Graph.HasProvider(provider) {
		return fmt.Errorf("analysis: unknown provider %q in the 2020 snapshot", provider)
	}
	rep := Outage(run, provider)
	header(w, fmt.Sprintf("Outage what-if: %s (2020)", rep.Provider))
	fmt.Fprintf(w, "sites down via direct dependency:     %d\n", rep.Direct)
	fmt.Fprintf(w, "sites down including hidden chains:   %d\n", rep.Transitive)
	if len(rep.AffectedProviders) > 0 {
		fmt.Fprintf(w, "providers critically dependent on it: %v\n", rep.AffectedProviders)
	}
	if len(rep.SampleSites) > 0 {
		fmt.Fprintf(w, "highest-ranked affected sites:        %v\n", rep.SampleSites)
	}
	return nil
}

// RenderRobustness prints the §8.3 defense-metric distribution plus the
// most and least robust popular sites.
func RenderRobustness(w io.Writer, run *Run) {
	g := run.Y2020.Graph
	d := g.RobustnessAll()
	total := d.Zero + d.Low + d.High + d.Full
	header(w, "Website robustness score (the paper's §8.3 defense metric)")
	pct := func(n int) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(n) / float64(total)
	}
	fmt.Fprintf(w, "score 0 (every service critical):    %6d (%4.1f%%)\n", d.Zero, pct(d.Zero))
	fmt.Fprintf(w, "score (0,0.5]:                       %6d (%4.1f%%)\n", d.Low, pct(d.Low))
	fmt.Fprintf(w, "score (0.5,1):                       %6d (%4.1f%%)\n", d.High, pct(d.High))
	fmt.Fprintf(w, "score 1 (no critical dependency):    %6d (%4.1f%%)\n", d.Full, pct(d.Full))

	// Audit the top-10 sites like the envisioned neutral service would.
	fmt.Fprintf(w, "\n%-16s %6s %9s  %s\n", "site", "score", "shared", "critical providers")
	for i, s := range g.Sites {
		if i >= 10 {
			break
		}
		r, err := g.RobustnessOf(s.Name)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "%-16s %6.2f %9d  %v\n", s.Name, r.Score, r.SharedFate, r.CriticalProviders)
	}
}

// WriteDOT exports the 2020 dependency graph in Graphviz format.
func WriteDOT(w io.Writer, run *Run, maxSites int) error {
	return run.Y2020.Graph.WriteDOT(w, maxSites)
}

// JSONSummary is the machine-readable form of the full experiment set.
type JSONSummary struct {
	Scale   int                      `json:"scale"`
	Table1  DatasetSummary           `json:"table1"`
	Table2  ComparisonSummary        `json:"table2"`
	Figure2 []BandJSON               `json:"figure2_dns"`
	Figure3 []BandJSON               `json:"figure3_cdn"`
	Figure4 [4]CABandRow             `json:"figure4_ca"`
	Table3  [4]core.TrendRow         `json:"table3_dns_trends"`
	Table4  [4]core.TrendRow         `json:"table4_cdn_trends"`
	Table6  [3]InterServiceRow       `json:"table6_interservice"`
	Figure5 map[string][]ProviderRow `json:"figure5_top_providers"`
	Figure7 []AmplificationRow       `json:"figure7_ca_dns"`
	Figure8 []AmplificationRow       `json:"figure8_ca_cdn"`
	Figure9 []AmplificationRow       `json:"figure9_cdn_dns"`
	Hidden  HiddenDeps               `json:"hidden_dependencies"`
}

// BandJSON flattens core.BandStats for encoding.
type BandJSON struct {
	Label      string  `json:"label"`
	Total      int     `json:"total"`
	ThirdParty float64 `json:"third_party"`
	Critical   float64 `json:"critical"`
	MultiThird float64 `json:"multi_third"`
	Mixed      float64 `json:"private_plus_third"`
}

func bandsJSON(bands [4]core.BandStats) []BandJSON {
	out := make([]BandJSON, 0, 4)
	for _, b := range bands {
		out = append(out, BandJSON{
			Label:      b.Label,
			Total:      b.Total,
			ThirdParty: b.ThirdParty(),
			Critical:   b.Critical(),
			MultiThird: b.MultiThird(),
			Mixed:      b.MixedFrac(),
		})
	}
	return out
}

// WriteJSON emits the summary as indented JSON.
func WriteJSON(w io.Writer, run *Run) error {
	s := JSONSummary{
		Scale:   run.Scale,
		Table1:  Table1(run),
		Table2:  Table2(run),
		Figure2: bandsJSON(Figure2(run)),
		Figure3: bandsJSON(Figure3(run)),
		Figure4: Figure4(run),
		Table3:  Table3(run),
		Table4:  Table4(run),
		Table6:  Table6(run),
		Figure5: map[string][]ProviderRow{
			"dns": Figure5(run, core.DNS, 5),
			"cdn": Figure5(run, core.CDN, 5),
			"ca":  Figure5(run, core.CA, 5),
		},
		Figure7: Figure7(run, 5),
		Figure8: Figure8(run, 5),
		Figure9: Figure9(run, 5),
		Hidden:  HiddenDependencies(run),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
