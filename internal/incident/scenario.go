package incident

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"depscope/internal/core"
	"depscope/internal/publicsuffix"
)

// Scenario is one what-if outage specification, the JSON document
// `depscope -incident file.json` and `POST depserver /incident` accept.
// docs/incidents.md documents the format with worked examples.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Snapshot selects the measured graph: "2016", "2020", or empty for
	// 2020. The simulation layer is snapshot-agnostic; the caller resolves
	// this to a graph before calling Simulate.
	Snapshot string `json:"snapshot,omitempty"`
	// Targets is the initial (or only) target selection. Ignored when
	// Stages is set.
	Targets Targets `json:"targets"`
	// Severity in (0,1) models a partial outage (targets degrade instead of
	// going dark); 0 and 1 both mean a full outage.
	Severity float64 `json:"severity,omitempty"`
	// JointFailures opts into redundancy exhaustion: a multi-third
	// arrangement loses the service when all of its providers are down.
	// Beyond the paper's semantics (see docs/incidents.md).
	JointFailures bool `json:"joint_failures,omitempty"`
	// Via lists the provider service types failure may traverse ("dns",
	// "cdn", "ca", "resource"); empty means all direct services — the
	// C_p/I_p traversal filter. "resource" lets the cascade continue
	// through implicitly-trusted chain vendors (their own DNS/CDN failures
	// reach the sites that include them).
	Via []string `json:"via,omitempty"`
	// Stages, when set, replay a timeline: each stage's targets are added
	// to all previous ones and the cumulative outage is re-simulated, so a
	// report shows the incident growing (the Dyn outage came in waves).
	Stages []Stage `json:"stages,omitempty"`
}

// Stage is one step of a staged scenario.
type Stage struct {
	Name    string  `json:"name"`
	Targets Targets `json:"targets"`
}

// Targets selects providers to fail. The selectors are unioned; at least
// one must be present.
type Targets struct {
	// Providers lists explicit provider identities (e.g. "dynect.net").
	Providers []string `json:"providers,omitempty"`
	// Entity fails every provider of one operating entity, grouped by the
	// paper's TLD/SOA rule: a provider matches when its registrable domain,
	// or the second-level label of it, equals the entity (case-insensitive).
	// "dynect" and "dynect.net" both select dynect.net.
	Entity string `json:"entity,omitempty"`
	// Service blacks out a whole service type: every third-party provider
	// of "dns", "cdn" or "ca".
	Service string `json:"service,omitempty"`
	// TopK fails the K providers of TopKService with the highest
	// concentration C_p under the scenario's traversal.
	TopK        int    `json:"top_k,omitempty"`
	TopKService string `json:"top_k_service,omitempty"`
	// MinChainDepth restricts the TopK ranking to chain vendors whose
	// minimum resource-inclusion depth across all sites is at least this
	// value: 2 selects vendors no page loads directly — the implicit trust
	// the direct measurement cannot see. Only meaningful with TopK over
	// the "resource" service (chain-enabled runs).
	MinChainDepth int `json:"min_chain_depth,omitempty"`
}

func (t Targets) empty() bool {
	return len(t.Providers) == 0 && t.Entity == "" && t.Service == "" && t.TopK == 0
}

// ParseScenario decodes and validates a scenario document. Unknown fields
// are rejected so a typoed selector fails loudly instead of simulating the
// wrong outage.
func ParseScenario(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("incident: parse scenario: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// parseService maps a scenario service name onto core.Service.
func parseService(s string) (core.Service, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "dns":
		return core.DNS, nil
	case "cdn":
		return core.CDN, nil
	case "ca":
		return core.CA, nil
	case "resource":
		return core.Resource, nil
	}
	return 0, fmt.Errorf("incident: unknown service %q (want dns, cdn, ca or resource)", s)
}

func (t Targets) validate() error {
	if t.empty() {
		return fmt.Errorf("incident: targets select nothing (set providers, entity, service or top_k)")
	}
	if t.TopK < 0 {
		return fmt.Errorf("incident: top_k must be positive, got %d", t.TopK)
	}
	if t.TopK > 0 {
		if _, err := parseService(t.TopKService); err != nil {
			return fmt.Errorf("incident: top_k needs top_k_service: %w", err)
		}
	}
	if t.MinChainDepth < 0 {
		return fmt.Errorf("incident: min_chain_depth must be non-negative, got %d", t.MinChainDepth)
	}
	if t.MinChainDepth > 0 && t.TopK == 0 {
		return fmt.Errorf("incident: min_chain_depth only shapes the top_k ranking; set top_k")
	}
	if t.Service != "" {
		if _, err := parseService(t.Service); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks the scenario for structural errors before any simulation.
func (s *Scenario) Validate() error {
	if s.Severity < 0 || s.Severity > 1 {
		return fmt.Errorf("incident: severity %v out of range [0,1]", s.Severity)
	}
	switch s.Snapshot {
	case "", "2016", "2020":
	default:
		return fmt.Errorf("incident: unknown snapshot %q (want 2016 or 2020)", s.Snapshot)
	}
	for _, v := range s.Via {
		if _, err := parseService(v); err != nil {
			return err
		}
	}
	if len(s.Stages) == 0 {
		return s.Targets.validate()
	}
	for i, st := range s.Stages {
		if err := st.Targets.validate(); err != nil {
			return fmt.Errorf("stage %d (%s): %w", i+1, st.Name, err)
		}
	}
	return nil
}

// traversal resolves Via onto the metric engine's TraversalOpts.
func (s *Scenario) traversal() (core.TraversalOpts, error) {
	return viaTraversal(s.Via)
}

// viaTraversal resolves a via list (scenario or sweep) onto the metric
// engine's TraversalOpts; empty means all service types.
func viaTraversal(via []string) (core.TraversalOpts, error) {
	if len(via) == 0 {
		return core.AllIndirect(), nil
	}
	var opts core.TraversalOpts
	for _, v := range via {
		svc, err := parseService(v)
		if err != nil {
			return opts, err
		}
		opts.ViaProviders = append(opts.ViaProviders, svc)
	}
	return opts, nil
}

// severity normalizes the spec value: 0 means a full outage.
func (s *Scenario) severity() float64 {
	if s.Severity == 0 {
		return 1
	}
	return s.Severity
}

// stages normalizes the scenario to a stage list: an unstaged scenario is a
// single stage named "outage".
func (s *Scenario) stages() []Stage {
	if len(s.Stages) > 0 {
		return s.Stages
	}
	return []Stage{{Name: "outage", Targets: s.Targets}}
}

// entityOf normalizes a provider identity to its entity key per the paper's
// grouping rule: the registrable domain, lowercased.
func entityOf(name string) string {
	return strings.ToLower(publicsuffix.RegistrableDomain(name))
}

// sld returns the second-level label of a registrable domain ("dynect" for
// "dynect.net").
func sld(domain string) string {
	if i := strings.IndexByte(domain, '.'); i > 0 {
		return domain[:i]
	}
	return domain
}

// ResolveTargets expands one Targets selection against a graph into a
// sorted, deduplicated provider list. opts is the scenario traversal (the
// top-K ranking is computed under it).
func ResolveTargets(g *core.Graph, t Targets, opts core.TraversalOpts) ([]string, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	selected := make(map[string]bool)

	for _, p := range t.Providers {
		if !g.HasProvider(p) {
			return nil, fmt.Errorf("incident: unknown provider %q in this snapshot", p)
		}
		selected[p] = true
	}

	if t.Entity != "" {
		want := strings.ToLower(strings.TrimSpace(t.Entity))
		matched := false
		// Unordered is fine: the selection is sorted on the way out.
		g.EachProviderName(func(n string) {
			ent := entityOf(n)
			if ent == want || sld(ent) == want || strings.ToLower(n) == want {
				selected[n] = true
				matched = true
			}
		})
		if !matched {
			return nil, fmt.Errorf("incident: entity %q matches no provider in this snapshot", t.Entity)
		}
	}

	if t.Service != "" {
		svc, err := parseService(t.Service)
		if err != nil {
			return nil, err
		}
		names := g.ProvidersOfService(svc)
		if len(names) == 0 {
			return nil, fmt.Errorf("incident: no %s providers in this snapshot", svc)
		}
		for _, n := range names {
			selected[n] = true
		}
	}

	if t.TopK > 0 {
		svc, err := parseService(t.TopKService)
		if err != nil {
			return nil, err
		}
		// With a depth floor, rank the full pool and keep only vendors no
		// site includes above the floor (min depth over every chain edge).
		var eligible map[string]bool
		n := t.TopK
		if t.MinChainDepth > 1 {
			minDepth := make(map[string]int)
			for _, s := range g.Sites {
				for _, e := range s.Chains {
					if d, ok := minDepth[e.Provider]; !ok || e.Depth < d {
						minDepth[e.Provider] = e.Depth
					}
				}
			}
			eligible = make(map[string]bool)
			for p, d := range minDepth {
				if d >= t.MinChainDepth {
					eligible[p] = true
				}
			}
			n = -1
		}
		stats := g.TopProviders(svc, opts, false, n)
		taken := 0
		for _, st := range stats {
			if eligible != nil && !eligible[st.Name] {
				continue
			}
			selected[st.Name] = true
			taken++
			if taken == t.TopK {
				break
			}
		}
		if taken == 0 {
			if t.MinChainDepth > 1 {
				return nil, fmt.Errorf("incident: no %s providers at chain depth >= %d in this snapshot (chain-enabled runs only)", svc, t.MinChainDepth)
			}
			return nil, fmt.Errorf("incident: no %s providers to rank in this snapshot", svc)
		}
	}

	out := make([]string, 0, len(selected))
	for n := range selected {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}
