package measure

import (
	"context"

	"depscope/internal/publicsuffix"
	"depscope/internal/resolver"
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

// BaselineSOA classifies a pair by SOA-record comparison only, asking r.
func BaselineSOA(ctx context.Context, r *resolver.Resolver, site, host string) (Classification, error) {
	siteSOA, okS, err := r.SOA(ctx, site)
	if err != nil {
		return Unknown, err
	}
	hostSOA, okH, err := r.SOA(ctx, host)
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
