package measure

import (
	"context"

	"depscope/internal/core"
	"depscope/internal/dnsmsg"
	"depscope/internal/publicsuffix"
)

// classifySiteCA applies the §3.2 heuristic: the revocation endpoints
// (OCSP/CDP hosts) of the site's certificate are classified private or
// third-party by TLD match, SAN-list match, then SOA comparison. A site
// with a third-party CA and no OCSP staple is critically dependent; a
// stapled response removes the criticality (mapped to the redundant
// private+third class so the impact metrics skip it). fqdn is the site's
// canonical name.
func (m *measurer) classifySiteCA(ctx context.Context, fqdn string) (SiteCA, error) {
	out := SiteCA{}
	cert := m.getCert(fqdn)
	if cert == nil {
		out.Class = core.ClassNone
		return out, nil
	}
	out.HTTPS = true
	out.Stapled = cert.Stapled
	out.RevocationHosts = cert.RevocationHosts()
	if len(out.RevocationHosts) == 0 {
		// No revocation endpoints at all: nothing to depend on.
		out.Class = core.ClassPrivate
		return out, nil
	}

	siteRD := publicsuffix.RegistrableDomain(fqdn)
	sanRDs := cert.SANRegistrableDomains()
	siteSOA, haveSiteSOA, err := m.cfg.Resolver.SOA(ctx, fqdn)
	if err != nil {
		return out, err
	}

	// Classify per endpoint host; the CA is third-party if any endpoint is.
	verdict := Unknown
	for _, host := range out.RevocationHosts {
		hostRD := publicsuffix.RegistrableDomain(host)
		var cls Classification
		switch {
		case hostRD != "" && hostRD == siteRD:
			cls = Private
		case sanRDs[hostRD]:
			cls = Private
		default:
			caSOA, haveCASOA, err := m.softSOA(ctx, dnsmsg.CanonicalName(host))
			if err != nil {
				return out, err
			}
			if haveSiteSOA && haveCASOA && !soaEqual(siteSOA, caSOA) {
				cls = Third
			}
		}
		if cls == Third {
			verdict = Third
			break
		}
		if cls == Private && verdict == Unknown {
			verdict = Private
		}
	}
	// The paper's CA heuristic has no further fallback: endpoints that never
	// mismatch are treated as the site's own authority.
	if verdict == Unknown {
		verdict = Private
	}

	out.CAName = publicsuffix.RegistrableDomain(out.RevocationHosts[0])
	out.Third = verdict == Third
	switch {
	case verdict == Private:
		out.Class = core.ClassPrivate
	case cert.Stapled:
		out.Class = core.ClassPrivatePlusThird
	default:
		out.Class = core.ClassSingleThird
	}
	return out, nil
}
