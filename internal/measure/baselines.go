package measure

import (
	"context"

	"depscope/internal/publicsuffix"
)

// Baseline classifiers reproduce the two strawmen the paper evaluates its
// combined heuristic against (§3.1–§3.3): TLD-only matching and SOA-only
// matching. They classify a (site, nameserver) pair in isolation, with no
// SAN or concentration evidence, and are used by the validation experiments
// that reproduce the paper's accuracy comparison (100%/97%/56% for DNS).

// BaselineTLD classifies a pair by registrable-domain equality only.
func BaselineTLD(site, host string) Classification {
	if publicsuffix.SameRegistrableDomain(site, host) {
		return Private
	}
	return Third
}

// BaselineSOA classifies a pair by SOA-record comparison only.
func (m *measurer) BaselineSOA(ctx context.Context, site, host string) (Classification, error) {
	siteSOA, okS, err := m.cfg.Resolver.SOA(ctx, site)
	if err != nil {
		return Unknown, err
	}
	hostSOA, okH, err := m.cfg.Resolver.SOA(ctx, host)
	if err != nil {
		return Unknown, err
	}
	if !okS || !okH {
		return Unknown, nil
	}
	if soaEqual(siteSOA, hostSOA) {
		return Private, nil
	}
	return Third, nil
}

// Baselines exposes the strawman classifiers bound to a configuration.
type Baselines struct {
	m *measurer
}

// NewBaselines builds baseline classifiers over cfg.
func NewBaselines(cfg Config) *Baselines {
	if cfg.ConcentrationThreshold == 0 {
		cfg.ConcentrationThreshold = 50
	}
	return &Baselines{m: &measurer{cfg: cfg}}
}

// TLD applies TLD-only classification.
func (b *Baselines) TLD(site, host string) Classification {
	return BaselineTLD(site, host)
}

// SOA applies SOA-only classification.
func (b *Baselines) SOA(ctx context.Context, site, host string) (Classification, error) {
	return b.m.BaselineSOA(ctx, site, host)
}
