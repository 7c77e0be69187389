package measure

import (
	"context"
	"fmt"
	"sort"
	"time"

	"depscope/internal/conc"
	"depscope/internal/core"
	"depscope/internal/publicsuffix"
)

// interService measures the §3.4 provider-to-provider dependencies over the
// providers the site pass discovered:
//
//	CDN→DNS: nameservers of each CDN's CNAME-suffix zone;
//	CA→DNS:  nameservers of each CA's revocation-endpoint zones;
//	CA→CDN:  CNAME chains of the revocation endpoints against the CDN map.
//
// Private per-site infrastructure on its own registrable domain (alias
// CDNs, alias PKI domains) is measured the same way, which is how the
// paper's "additional websites" with hidden dependencies surface.
//
// The providers are independent, so the pass fans out over the shared conc
// pool; results land in order-independent maps, so the run stays
// deterministic. Under conc.Collect a provider whose classification fails is
// recorded and omitted instead of aborting the run.
func (m *measurer) interService(ctx context.Context, res *Results) error {
	// CDN name → representative suffix (shortest, so we land on the zone
	// apex), precomputed at compile time.
	cdnSuffix := m.cdn.shortest

	// Collect the provider population observed in the site pass.
	cdns := make(map[string]bool)
	caHosts := make(map[string][]string) // CA identity → revocation hosts
	for i := range res.Sites {
		sr := &res.Sites[i]
		for _, c := range sr.CDN.Third {
			cdns[c] = true
		}
		for _, c := range sr.CDN.PrivateCDNs {
			// Only private CDNs on their own registrable domain have a
			// separate dependency structure worth measuring.
			if sfx, ok := cdnSuffix[c]; ok &&
				publicsuffix.RegistrableDomain(sfx) != publicsuffix.RegistrableDomain(sr.Site) {
				cdns[c] = true
			}
		}
		if sr.CA.HTTPS && sr.CA.CAName != "" &&
			sr.CA.CAName != publicsuffix.RegistrableDomain(sr.Site) {
			hosts := caHosts[sr.CA.CAName]
			for _, h := range sr.CA.RevocationHosts {
				if !containsStr(hosts, h) {
					hosts = append(hosts, h)
				}
			}
			caHosts[sr.CA.CAName] = hosts
		}
	}

	// CDN → DNS.
	cdnList := sortedKeys(cdns)
	cdnDeps := make([]*ProviderDep, len(cdnList))
	err := conc.ForEach(ctx, len(cdnList), m.cfg.Workers, conc.FailFast, func(ctx context.Context, i int) error {
		cdn := cdnList[i]
		suffix, ok := cdnSuffix[cdn]
		if !ok {
			return nil
		}
		apex := publicsuffix.RegistrableDomain(suffix)
		if apex == "" {
			apex = suffix
		}
		start := time.Now()
		cls, deps, err := m.classifyOwnerDNS(ctx, apex, res.NSConcentration)
		if abort := m.observe(stageInterService, start, cdn, err); abort != nil {
			return fmt.Errorf("interservice %s dns: %w", cdn, abort)
		}
		if err == nil {
			cdnDeps[i] = &ProviderDep{Provider: cdn, Service: core.DNS, Class: cls, Deps: deps}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, dep := range cdnDeps {
		if dep != nil {
			res.CDNToDNS[cdnList[i]] = *dep
		}
	}

	// CA → DNS and CA → CDN.
	caList := make([]string, 0, len(caHosts))
	for ca := range caHosts {
		caList = append(caList, ca)
	}
	sort.Strings(caList)
	res.CAToDNS, res.CAToCDN, err = m.ownerDeps(ctx, "interservice", caList, caHosts, res.NSConcentration)
	return err
}

// ownerDeps measures each owner's own DNS arrangement (classifyOwnerDNS) and
// the CDNs fronting its hosts (classifyCACDN) over the conc pool. CAs and
// chain vendors are measured this way; pass names the pass in an aborting
// error ("interservice", "chain"). An owner whose classification failed
// under conc.Collect is omitted from that map.
func (m *measurer) ownerDeps(ctx context.Context, pass string, owners []string, hosts map[string][]string, nsConc map[string]int) (toDNS, toCDN map[string]ProviderDep, err error) {
	dnsDeps := make([]ProviderDep, len(owners))
	cdnDeps := make([]ProviderDep, len(owners))
	err = conc.ForEach(ctx, len(owners), m.cfg.Workers, conc.FailFast, func(ctx context.Context, i int) error {
		owner := owners[i]
		start := time.Now()
		cls, deps, err := m.classifyOwnerDNS(ctx, owner, nsConc)
		if abort := m.observe(stageInterService, start, owner, err); abort != nil {
			return fmt.Errorf("%s %s dns: %w", pass, owner, abort)
		}
		if err == nil {
			dnsDeps[i] = ProviderDep{Provider: owner, Service: core.DNS, Class: cls, Deps: deps}
		}

		start = time.Now()
		cls, deps, err = m.classifyCACDN(ctx, owner, hosts[owner])
		if abort := m.observe(stageInterService, start, owner, err); abort != nil {
			return fmt.Errorf("%s %s cdn: %w", pass, owner, abort)
		}
		if err == nil {
			cdnDeps[i] = ProviderDep{Provider: owner, Service: core.CDN, Class: cls, Deps: deps}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	toDNS = make(map[string]ProviderDep, len(owners))
	toCDN = make(map[string]ProviderDep, len(owners))
	for i, owner := range owners {
		if dnsDeps[i].Provider != "" {
			toDNS[owner] = dnsDeps[i]
		}
		if cdnDeps[i].Provider != "" {
			toCDN[owner] = cdnDeps[i]
		}
	}
	return toDNS, toCDN, nil
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// classifyOwnerDNS classifies the nameserver arrangement of a domain that
// has no certificate of its own (providers): TLD match, SOA comparison,
// concentration — the site heuristic minus the SAN rule.
func (m *measurer) classifyOwnerDNS(ctx context.Context, owner string, conc map[string]int) (core.DepClass, []string, error) {
	ns, err := m.cfg.Resolver.NS(ctx, owner)
	if err != nil {
		return core.ClassUnknown, nil, err
	}
	if len(ns) == 0 {
		return core.ClassUnknown, nil, nil
	}
	sort.Strings(ns)
	ownerRD := publicsuffix.RegistrableDomain(owner)
	ownerSOA, haveOwnerSOA, err := m.cfg.Resolver.SOA(ctx, owner)
	if err != nil {
		return core.ClassUnknown, nil, err
	}
	pairs := make([]NSPair, 0, len(ns))
	for _, h := range ns {
		nsRD := publicsuffix.RegistrableDomain(h)
		nsSOA, haveNSSOA, err := m.softSOA(ctx, h)
		if err != nil {
			return core.ClassUnknown, nil, err
		}
		pair := NSPair{Host: h, Class: Unknown, Entity: entityKey(h, nsSOA, haveNSSOA)}
		switch {
		case nsRD != "" && nsRD == ownerRD:
			pair.Class, pair.Evidence = Private, "tld"
		case haveOwnerSOA && haveNSSOA && !soaEqual(ownerSOA, nsSOA):
			pair.Class, pair.Evidence = Third, "soa"
		case conc[nsRD] >= m.cfg.ConcentrationThreshold:
			pair.Class, pair.Evidence = Third, "concentration"
		default:
			// Providers whose SOA matches their nameserver's and that fall
			// under the concentration threshold look private: a provider
			// zone delegating to hosts that share its declared master is
			// operated by that master's owner.
			pair.Class, pair.Evidence = Private, "soa-match"
		}
		pairs = append(pairs, pair)
	}
	cls, deps := reduceDNSPairs(owner, pairs)
	return cls, deps, nil
}

// classifyCACDN detects and classifies CDNs fronting a CA's revocation
// endpoints.
func (m *measurer) classifyCACDN(ctx context.Context, ca string, hosts []string) (core.DepClass, []string, error) {
	caSOA, haveCASOA, err := m.cfg.Resolver.SOA(ctx, ca)
	if err != nil {
		return core.ClassNone, nil, err
	}
	var thirds, privates []string
	seen := make(map[string]bool)
	for _, host := range hosts {
		chain, err := m.cfg.Resolver.CNAMEChain(ctx, host)
		if err != nil {
			continue
		}
		for _, name := range chain {
			cdn, _, ok := m.cdn.Match(name)
			if !ok || seen[cdn] {
				continue
			}
			seen[cdn] = true
			cnameRD := publicsuffix.RegistrableDomain(name)
			switch {
			case cnameRD != "" && cnameRD == ca:
				privates = append(privates, cdn)
			default:
				cnSOA, haveCNSOA, err := m.softSOA(ctx, name)
				if err != nil {
					return core.ClassNone, nil, err
				}
				if haveCASOA && haveCNSOA && soaEqual(caSOA, cnSOA) {
					privates = append(privates, cdn)
				} else {
					thirds = append(thirds, cdn)
				}
			}
		}
	}
	sort.Strings(thirds)
	sort.Strings(privates)
	deps := append(append([]string(nil), thirds...), privates...)
	switch {
	case len(thirds) == 0 && len(privates) == 0:
		return core.ClassNone, nil, nil
	case len(thirds) == 0:
		return core.ClassPrivate, deps, nil
	case len(thirds) == 1 && len(privates) == 0:
		return core.ClassSingleThird, deps, nil
	case len(thirds) >= 2:
		return core.ClassMultiThird, deps, nil
	default:
		return core.ClassPrivatePlusThird, deps, nil
	}
}

func containsStr(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
