package measure

import (
	"context"

	"depscope/internal/core"
)

// Stage is one per-site classifier of the pipeline. Pass 2 of Run visits
// each site exactly once and dispatches it through every registered stage,
// so adding a service measurement means implementing Stage and appending it
// to defaultStages — Run itself never changes.
//
// A stage writes its verdict into sc.Result. On error it must first reset
// its sub-result to the uncharacterized value, so that under conc.Collect
// the site comes back well-formed (uncharacterized, not half-classified).
type Stage interface {
	// Name labels the stage in diagnostics and error messages.
	Name() string
	// ClassifySite measures one site and records the verdict in sc.Result.
	ClassifySite(ctx context.Context, sc *SiteContext) error
}

// SiteContext carries everything a stage may consult about one site: the
// pass-1 resolution artifacts shared by all stages plus the result slot to
// fill.
type SiteContext struct {
	// Site is the website under measurement; Rank its position in the list.
	Site string
	Rank int
	// NS is the site's sorted pass-1 nameserver set; nil when the site was
	// unresolvable (possible only under conc.Collect).
	NS []string
	// Conc is the population-wide nameserver concentration signal.
	Conc map[string]int
	// Result is the slot this site's verdicts accumulate in.
	Result *SiteResult

	// fqdn is Site in canonical form, computed once per stream, so resolver
	// lookups about the site take the resolver's no-copy path.
	fqdn string
	m    *measurer
}

// Config exposes the run configuration to stage implementations.
func (sc *SiteContext) Config() *Config { return &sc.m.cfg }

// Stage names. stageResolve and stageInterService bracket the per-site
// classifier stages in Diagnostics; the middle names come from the stages
// themselves.
const (
	stageResolve      = "resolve"
	stageInterService = "interservice"
)

// defaultStages returns the paper's three service classifiers, in the order
// they run per site. The DNS stage must precede none of the others — each
// stage reads only pass-1 artifacts — but the order is kept stable so error
// messages and diagnostics are deterministic.
func defaultStages() []Stage {
	return []Stage{dnsStage{}, caStage{}, cdnStage{}}
}

// stageOrder lists the diagnostic stage names in pipeline order.
func (m *measurer) stageOrder() []string {
	names := []string{stageResolve}
	for _, st := range m.stages {
		names = append(names, st.Name())
	}
	return append(names, stageInterService)
}

// dnsStage applies the §3.1 combined nameserver heuristic.
type dnsStage struct{}

func (dnsStage) Name() string { return "dns" }

func (dnsStage) ClassifySite(ctx context.Context, sc *SiteContext) error {
	dns, err := sc.m.classifySiteDNS(ctx, sc.fqdn, sc.NS, sc.Conc)
	if err != nil {
		sc.Result.DNS = SiteDNS{Class: core.ClassUnknown}
		return err
	}
	sc.Result.DNS = dns
	return nil
}

// caStage applies the §3.2 certificate/revocation heuristic.
type caStage struct{}

func (caStage) Name() string { return "ca" }

func (caStage) ClassifySite(ctx context.Context, sc *SiteContext) error {
	ca, err := sc.m.classifySiteCA(ctx, sc.fqdn)
	if err != nil {
		sc.Result.CA = SiteCA{Class: core.ClassUnknown}
		return err
	}
	sc.Result.CA = ca
	return nil
}

// cdnStage applies the §3.3 landing-page/CNAME heuristic.
type cdnStage struct{}

func (cdnStage) Name() string { return "cdn" }

func (cdnStage) ClassifySite(ctx context.Context, sc *SiteContext) error {
	cdn, err := sc.m.classifySiteCDN(ctx, sc.Site, sc.fqdn)
	if err != nil {
		sc.Result.CDN = SiteCDN{Class: core.ClassUnknown}
		return err
	}
	sc.Result.CDN = cdn
	return nil
}
