package analysis

import (
	"errors"
	"fmt"
	"strings"

	"depscope/internal/core"
)

// Query-friendly read-only views over a Run, exported for the depserver
// query API (internal/serve). Everything here reads the immutable pointer
// graph — map lookups and bounded walks, no locks — so a server can call it
// on the request hot path against a published snapshot. The only exception
// is RankedProviders, which goes through the graph's metrics engine (a
// per-traversal cache whose first query runs the batch propagation over
// every provider): callers serving rankings under load should compute them
// once at snapshot-build time and serve the result.

// ErrUnknownSite marks a site lookup that found no such site in the
// snapshot; the query API maps it to 404 where every other view error is a
// caller mistake (400).
var ErrUnknownSite = errors.New("analysis: unknown site")

// ServiceDep is one service's measured arrangement in a SiteView.
type ServiceDep struct {
	Service   string `json:"service"`
	Class     string `json:"class"`
	Critical  bool   `json:"critical"`
	Redundant bool   `json:"redundant"`
	// Providers are the measured third-party provider identities.
	Providers []string `json:"providers,omitempty"`
	// PrivateInfra names the site's own infrastructure nodes for this
	// service (a private CDN or CA domain with its own measured
	// dependencies — the paper's hidden-dependency cases).
	PrivateInfra []string `json:"private_infra,omitempty"`
}

// SiteView is the per-site dependency breakdown the query API serves.
type SiteView struct {
	Site     string       `json:"site"`
	Rank     int          `json:"rank"`
	Snapshot string       `json:"snapshot"`
	Services []ServiceDep `json:"services"`
	// CriticalProviders lists every provider the site depends on critically,
	// directly or transitively through provider-to-provider dependencies —
	// Graph.CriticalProviders, the set CriticalDepsPerSite(true) counts.
	CriticalProviders []string `json:"critical_providers,omitempty"`
}

// CanonicalSnapshot normalizes a snapshot spec: the empty string means the
// 2020 snapshot, matching the incident scenario format.
func CanonicalSnapshot(s string) string {
	if s == "" {
		return "2020"
	}
	return s
}

// SiteBreakdown looks one site up in the named snapshot of the run and
// returns its dependency breakdown. An unknown site wraps ErrUnknownSite.
func SiteBreakdown(run *Run, snapshot, site string) (*SiteView, error) {
	g, err := SnapshotGraph(run, snapshot)
	if err != nil {
		return nil, err
	}
	s := g.Site(site)
	if s == nil {
		return nil, fmt.Errorf("%w: %q in snapshot %s", ErrUnknownSite, site, CanonicalSnapshot(snapshot))
	}
	view := &SiteView{
		Site:     s.Name,
		Rank:     s.Rank,
		Snapshot: CanonicalSnapshot(snapshot),
	}
	for _, svc := range core.Services {
		d, ok := s.Deps[svc]
		infra := s.PrivateInfra[svc]
		if !ok && len(infra) == 0 {
			continue
		}
		view.Services = append(view.Services, ServiceDep{
			Service:      strings.ToLower(svc.String()),
			Class:        d.Class.String(),
			Critical:     d.Class.Critical(),
			Redundant:    d.Class.Redundant(),
			Providers:    d.Providers,
			PrivateInfra: infra,
		})
	}
	view.CriticalProviders = g.CriticalProviders(s)
	return view, nil
}

// SiteNames returns the snapshot's site names in rank order.
func SiteNames(run *Run, snapshot string) ([]string, error) {
	g, err := SnapshotGraph(run, snapshot)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(g.Sites))
	for i, s := range g.Sites {
		names[i] = s.Name
	}
	return names, nil
}

// RankedProviders ranks every provider of svc in the named snapshot by
// concentration (byImpact false) or impact (byImpact true) under the full
// indirect traversal. It consults the graph's metrics engine, which caches
// the batch propagation — call it at snapshot-build time, not per request.
// Every snapshot ranks off its pointer graph's engine, whether Execute built
// it or a delta derived it, and ranking warms the engine Graph.Apply carries
// to the next delta.
func RankedProviders(run *Run, snapshot string, svc core.Service, byImpact bool) ([]core.ProviderStat, error) {
	g, err := SnapshotGraph(run, snapshot)
	if err != nil {
		return nil, err
	}
	return g.TopProviders(svc, core.AllIndirect(), byImpact, 0), nil
}
