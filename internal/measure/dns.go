package measure

import (
	"context"
	"errors"
	"sort"
	"sync"

	"depscope/internal/certs"
	"depscope/internal/core"
	"depscope/internal/dnsmsg"
	"depscope/internal/publicsuffix"
	"depscope/internal/resolver"
)

// classifySiteDNS applies the paper's §3.1 combined heuristic to every
// (site, nameserver) pair and reduces the pairs to a dependency class via
// entity grouping. fqdn is the site's canonical name.
func (m *measurer) classifySiteDNS(ctx context.Context, fqdn string, nsHosts []string, conc map[string]int) (SiteDNS, error) {
	out := SiteDNS{}
	if len(nsHosts) == 0 {
		out.Class = core.ClassUnknown
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

	out.Pairs = make([]NSPair, 0, len(nsHosts))
	for _, ns := range nsHosts {
		pair := NSPair{Host: ns, Class: Unknown}
		nsRD := publicsuffix.RegistrableDomain(ns)
		nsSOA, haveNSSOA, err := m.softSOA(ctx, ns)
		if err != nil {
			return out, err
		}
		pair.Entity = entityKey(ns, nsSOA, haveNSSOA)
		switch {
		case nsRD != "" && nsRD == siteRD:
			pair.Class, pair.Evidence = Private, "tld"
		case !m.cfg.DisableSAN && sanRDs != nil && sanRDs[nsRD]:
			pair.Class, pair.Evidence = Private, "san"
		case !m.cfg.DisableSOA && haveSiteSOA && haveNSSOA && !soaEqual(siteSOA, nsSOA):
			pair.Class, pair.Evidence = Third, "soa"
		case !m.cfg.DisableConcentration && conc[nsRD] >= m.cfg.ConcentrationThreshold:
			pair.Class, pair.Evidence = Third, "concentration"
		}
		out.Pairs = append(out.Pairs, pair)
	}
	out.Class, out.Providers = reduceDNSPairs(fqdn, out.Pairs)
	return out, nil
}

// soaEqual compares two start-of-authority records by declared master
// nameserver: zones run by the same operator share an MNAME.
func soaEqual(a, b dnsmsg.SOAData) bool {
	return dnsmsg.CanonicalName(a.MName) == dnsmsg.CanonicalName(b.MName)
}

// entityKey produces the same-entity identity of a nameserver host. Per the
// paper's redundancy rule [31], nameservers sharing a registrable domain,
// an SOA MNAME or an SOA RNAME belong to one entity; keying on the SOA
// MNAME's registrable domain (falling back to the host's) folds aliases like
// alicdn.com/alibabadns.com into one entity.
func entityKey(ns string, soa dnsmsg.SOAData, haveSOA bool) string {
	if haveSOA {
		if rd := publicsuffix.RegistrableDomain(soa.MName); rd != "" {
			return rd
		}
	}
	if rd := publicsuffix.RegistrableDomain(ns); rd != "" {
		return rd
	}
	return publicsuffix.Normalize(ns)
}

// entitiesPool recycles the per-call entity-grouping scratch map of
// reduceDNSPairs across sites and workers.
var entitiesPool = sync.Pool{New: func() any {
	return make(map[string]Classification, 8)
}}

// reduceDNSPairs folds pair classifications into the site's dependency
// class. Any unknown pair leaves the site uncharacterized (the paper
// conservatively excludes such sites).
func reduceDNSPairs(site string, pairs []NSPair) (core.DepClass, []string) {
	entities := entitiesPool.Get().(map[string]Classification)
	defer func() {
		clear(entities)
		entitiesPool.Put(entities)
	}()
	for _, p := range pairs {
		if p.Class == Unknown {
			return core.ClassUnknown, nil
		}
		prev, seen := entities[p.Entity]
		if !seen {
			entities[p.Entity] = p.Class
			continue
		}
		// An entity with conflicting verdicts is resolved pessimistically to
		// third-party (overestimating exposure, per the paper's framing).
		if prev != p.Class {
			entities[p.Entity] = Third
		}
	}
	var thirds []string
	private := false
	for ent, cls := range entities {
		if cls == Third {
			thirds = append(thirds, ent)
		} else {
			private = true
		}
	}
	sort.Strings(thirds)
	switch {
	case len(thirds) == 0:
		return core.ClassPrivate, nil
	case len(thirds) == 1 && !private:
		return core.ClassSingleThird, thirds
	case len(thirds) >= 2:
		return core.ClassMultiThird, thirds
	default:
		return core.ClassPrivatePlusThird, thirds
	}
}

// softSOA looks up the SOA governing name, treating server failures and
// refusals (hosts outside any reachable authority) as absence of evidence
// rather than a fatal error — a live measurement sees plenty of those.
func (m *measurer) softSOA(ctx context.Context, name string) (dnsmsg.SOAData, bool, error) {
	soa, ok, err := m.cfg.Resolver.SOA(ctx, name)
	if errors.Is(err, resolver.ErrServFail) {
		return dnsmsg.SOAData{}, false, nil
	}
	return soa, ok, err
}

func (m *measurer) getCert(host string) *certs.Certificate {
	if m.cfg.Certs == nil {
		return nil
	}
	return m.cfg.Certs.Get(host)
}
