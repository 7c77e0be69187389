package measure

import (
	"context"
	"errors"
	"sort"
	"sync"

	"depscope/internal/core"
	"depscope/internal/publicsuffix"
	"depscope/internal/resolver"
)

// foundPool recycles the per-site CDN-evidence scratch map (CDN name → the
// canonical CNAME that matched it) across sites.
var foundPool = sync.Pool{New: func() any {
	return make(map[string]string, 4)
}}

// classifySiteCDN applies §3.3: the landing page is reduced to resource
// hosts; hosts belonging to the site (TLD, SAN or SOA evidence) are its
// internal resources; their CNAME chains are matched against the CNAME→CDN
// map; each (site, CDN) pair is then classified private or third-party.
// fqdn is the site's canonical name; each page host's canonical name comes
// with the page (the page builder made it with the host), so its SOA and
// CNAME lookups take the resolver's no-copy path without a fresh string.
func (m *measurer) classifySiteCDN(ctx context.Context, site, fqdn string) (SiteCDN, error) {
	out := SiteCDN{}
	if m.cfg.Pages == nil {
		out.Class = core.ClassNone
		return out, nil
	}
	page := m.cfg.Pages.Page(site)
	if page == nil {
		out.Class = core.ClassNone
		return out, nil
	}

	siteRD := publicsuffix.RegistrableDomain(fqdn)
	cert := m.getCert(fqdn)
	var sanRDs map[string]bool
	if cert != nil {
		sanRDs = cert.SANRegistrableDomains()
	}
	siteSOA, haveSiteSOA, err := m.cfg.Resolver.SOA(ctx, fqdn)
	if err != nil {
		return out, err
	}

	// Identify internal resources; internalFQ holds their canonical names.
	hosts, fqdns := page.HostNames()
	internalFQ := make([]string, 0, len(hosts))
	for i, host := range hosts {
		fq := fqdns[i]
		hostRD := publicsuffix.RegistrableDomain(host)
		internal := hostRD != "" && hostRD == siteRD
		if !internal && cert != nil && (sanRDs[hostRD] || cert.MatchesSAN(host)) {
			internal = true
		}
		if !internal && haveSiteSOA {
			// SOA evidence: the host's authority shares the site's master.
			hostSOA, haveHostSOA, err := m.softSOA(ctx, fq)
			if err != nil {
				return out, err
			}
			if haveHostSOA && soaEqual(siteSOA, hostSOA) {
				internal = true
			}
		}
		if internal {
			out.InternalHosts = append(out.InternalHosts, host)
			internalFQ = append(internalFQ, fq)
		}
	}

	// Detect CDNs on internal-resource CNAME chains.
	found := foundPool.Get().(map[string]string)
	defer func() {
		clear(found)
		foundPool.Put(found)
	}()
	for _, fq := range internalFQ {
		chain, err := m.cfg.Resolver.CNAMEChain(ctx, fq)
		if err != nil && !errors.Is(err, resolver.ErrServFail) {
			return out, err
		}
		for _, name := range chain {
			if cdn, _, ok := m.cdn.Match(name); ok {
				if _, seen := found[cdn]; !seen {
					found[cdn] = name
				}
			}
		}
	}
	if len(found) == 0 {
		out.Class = core.ClassNone
		return out, nil
	}
	out.UsesCDN = true

	// Classify each (site, CDN) pair by its matched CNAME.
	for cdn, cname := range found {
		cnameRD := publicsuffix.RegistrableDomain(cname)
		var cls Classification
		switch {
		case cnameRD != "" && cnameRD == siteRD:
			cls = Private
		case sanRDs[cnameRD]:
			cls = Private
		default:
			cnSOA, haveCNSOA, err := m.softSOA(ctx, cname)
			if err != nil {
				return out, err
			}
			if haveSiteSOA && haveCNSOA && !soaEqual(siteSOA, cnSOA) {
				cls = Third
			}
		}
		if cls == Third {
			out.Third = append(out.Third, cdn)
		} else {
			// Unknown pairs default to private, consistent with the paper's
			// conservative treatment of unclassifiable CDN pairs.
			out.PrivateCDNs = append(out.PrivateCDNs, cdn)
		}
	}
	sort.Strings(out.Third)
	sort.Strings(out.PrivateCDNs)

	switch {
	case len(out.Third) == 0:
		out.Class = core.ClassPrivate
	case len(out.Third) == 1 && len(out.PrivateCDNs) == 0:
		out.Class = core.ClassSingleThird
	case len(out.Third) == 1:
		out.Class = core.ClassPrivatePlusThird
	default:
		out.Class = core.ClassMultiThird
	}
	return out, nil
}
