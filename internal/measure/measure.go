// Package measure implements the paper's §3 measurement methodology: the
// combined classification heuristics for third-party DNS providers, CAs and
// CDNs (TLD matching + SAN lists + SOA comparison + provider concentration),
// redundancy detection via entity grouping, OCSP-stapling observation, and
// the inter-service dependency measurements (CDN→DNS, CA→DNS, CA→CDN).
//
// The pipeline consumes only what a real measurement sees: DNS responses via
// a resolver, served certificates, landing pages, and a CNAME-suffix→CDN
// map. It never touches generator ground truth; validation against planted
// labels lives in the test suite, mirroring the paper's manually verified
// 100-site samples.
//
// Structurally the pipeline is a fixed sequence of passes: pass 1 resolves
// every site's NS set (the concentration signal needs the full population),
// pass 2 visits each site exactly once and runs the DNS, CA and CDN
// classifiers (plus the chain classifier on chain runs), pass 3 measures
// provider-to-provider dependencies, and pass 4 resolves chain vendors.
// All fan-out goes through the shared internal/conc pool, and
// Config.ErrorPolicy decides whether a per-site failure aborts the run
// (conc.FailFast) or yields an uncharacterized SiteResult plus a recorded
// error in Results.Diagnostics (conc.Collect) — the paper itself tolerates
// dead domains and partial data ("13.5% uncharacterized pairs").
package measure

import (
	"context"
	"fmt"
	"time"

	"depscope/internal/certs"
	"depscope/internal/chain"
	"depscope/internal/conc"
	"depscope/internal/core"
	"depscope/internal/publicsuffix"
	"depscope/internal/resolver"
	"depscope/internal/telemetry"
	"depscope/internal/webpage"
)

// CertSource provides the certificate served by a host, nil when the host
// does not speak HTTPS.
type CertSource interface {
	Get(host string) *certs.Certificate
}

// PageSource provides landing pages.
type PageSource interface {
	Page(site string) *webpage.Page
}

// Config parameterizes a measurement run.
type Config struct {
	// Resolver answers DNS questions.
	Resolver *resolver.Resolver
	// Certs provides served certificates.
	Certs CertSource
	// Pages provides landing pages.
	Pages PageSource
	// CDNMap is the CNAME→CDN map.
	CDNMap CDNMap
	// ConcentrationThreshold is the §3.1 concentration cutoff; zero means 50.
	ConcentrationThreshold int
	// Workers bounds concurrency; any value < 1 means GOMAXPROCS.
	Workers int
	// ErrorPolicy decides what a per-site measurement failure does. The zero
	// value, conc.FailFast, aborts the run on the first error — the right
	// default for the deterministic in-process world, where any error is a
	// bug. conc.Collect instead marks the affected site uncharacterized,
	// records the error in Results.Diagnostics, and keeps going — the right
	// mode for live measurements over real resolvers, which hit plenty of
	// dead domains (this generalizes the former SkipUnresolvable flag).
	ErrorPolicy conc.Policy
	// DisableSAN / DisableSOA / DisableConcentration switch individual rules
	// of the combined DNS heuristic off, for the ablation experiments that
	// quantify each rule's contribution.
	DisableSAN, DisableSOA, DisableConcentration bool

	// Chains, when non-nil and enabled (MaxDepth > 1), adds the chain
	// classifier to the site pass: each page's resource-inclusion tree is
	// reduced to depth-annotated vendor references (SiteResult.Chains) and every
	// discovered vendor's own DNS/CDN arrangement is resolved into
	// Results.ResourceToDNS / ResourceToCDN. Nil or disabled leaves the
	// pipeline byte-identical to the pre-chain behavior.
	Chains *chain.Config

	// Checkpoint, when non-nil, resumes from previously recorded progress:
	// site results whose fingerprints still match are reused instead of
	// re-measured. Pass 1 and every other site are measured against the
	// current zones: no resolver cache is carried over. See checkpoint.go.
	Checkpoint *Checkpoint
	// Fingerprint returns a site's content fingerprint: a hash of
	// everything the measurement can observe about it
	// (ecosystem.World.Fingerprinter). A checkpointed stream calls it from
	// the site-pass workers while the site's page is live, so it must be
	// safe for concurrent use. A checkpointed entry is reused only when its
	// recorded fingerprint equals the current one; with no Fingerprint,
	// entries match on equal empty strings — a plain same-universe resume.
	Fingerprint func(site string) string
	// OnCheckpoint, when set, receives a snapshot of every completed site
	// at the end of each MeasureBatch, once the run has measured a site
	// rather than reused it; the last batch's snapshot is the complete run.
	// The callback owns the snapshot (typically SaveCheckpoint); a returned
	// error aborts the run.
	OnCheckpoint func(*Checkpoint) error
	// CheckpointLabel tags emitted checkpoints and guards resume: a prior
	// checkpoint with a different label is refused.
	CheckpointLabel string
}

// Classification is a per-pair verdict.
type Classification int

// Per-pair verdicts.
const (
	Unknown Classification = iota
	Private
	Third
)

// String names the classification.
func (c Classification) String() string {
	switch c {
	case Private:
		return "private"
	case Third:
		return "third-party"
	}
	return "unknown"
}

// NSPair is one (site, nameserver) classification with its evidence, kept
// for the validation experiments.
type NSPair struct {
	Host     string
	Class    Classification
	Evidence string // which rule fired: "tld", "san", "soa", "concentration"
	Entity   string // same-entity key used for redundancy grouping
}

// SiteDNS is the DNS measurement of one website.
type SiteDNS struct {
	Class core.DepClass
	// Providers are the measured third-party provider identities
	// (registrable domains of the nameserver entities).
	Providers []string
	Pairs     []NSPair
}

// SiteCA is the certificate measurement of one website.
type SiteCA struct {
	HTTPS   bool
	Class   core.DepClass // ClassNone when no HTTPS
	CAName  string        // measured CA identity (issuer org registrable domain)
	Third   bool
	Stapled bool
	// RevocationHosts are the OCSP/CDP hosts seen in the certificate.
	RevocationHosts []string
}

// SiteCDN is the CDN measurement of one website.
type SiteCDN struct {
	UsesCDN bool
	Class   core.DepClass // ClassNone when no CDN observed
	// Third lists third-party CDN names; PrivateCDNs lists private ones.
	Third       []string
	PrivateCDNs []string
	// InternalHosts are the page hosts attributed to the site itself.
	InternalHosts []string
}

// SiteResult bundles one site's measurements.
type SiteResult struct {
	Site string
	Rank int
	DNS  SiteDNS
	CA   SiteCA
	CDN  SiteCDN
	// Chains lists the site's implicitly-trusted vendors with their minimum
	// inclusion depth; nil unless the run had chains enabled. omitempty
	// keeps chains-off serializations (checkpoints, the pinning hash)
	// byte-identical to pre-chain ones.
	Chains []ChainRef `json:",omitempty"`
}

// Results is a full measurement run.
type Results struct {
	Sites []SiteResult
	// NSConcentration maps nameserver registrable domain → number of sites
	// observed using it (the §3.1 concentration signal).
	NSConcentration map[string]int
	// PairStats accounts for the (website, nameserver) pairs, as the paper
	// reports them ("155,151 distinct pairs... 13.5% uncharacterized").
	PairStats PairStats
	// EvidenceCounts tallies which rule classified each pair ("tld", "san",
	// "soa", "concentration") — a diagnostic for the heuristic's anatomy.
	EvidenceCounts map[string]int
	// Inter-service measurements, keyed by provider identity.
	CDNToDNS map[string]ProviderDep
	CAToDNS  map[string]ProviderDep
	CAToCDN  map[string]ProviderDep
	// ResourceToDNS / ResourceToCDN are the chain inter-service
	// measurements: each implicitly-trusted vendor's own DNS and CDN
	// arrangement. Nil unless the run had chains enabled.
	ResourceToDNS map[string]ProviderDep `json:",omitempty"`
	ResourceToCDN map[string]ProviderDep `json:",omitempty"`
	// Diagnostics reports per-stage progress counters, resolver cache
	// statistics and — under conc.Collect — the recorded per-site errors.
	Diagnostics Diagnostics
}

// PairStats summarizes (website, nameserver) pair classification.
type PairStats struct {
	Total           int
	Private         int
	Third           int
	Uncharacterized int
}

// UncharacterizedFrac is the fraction of pairs no heuristic classified.
func (p PairStats) UncharacterizedFrac() float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.Uncharacterized) / float64(p.Total)
}

// ProviderDep is a measured provider→provider arrangement.
type ProviderDep struct {
	Provider string
	Service  core.Service // the depended-upon service
	Class    core.DepClass
	// Deps are the measured upstream provider identities.
	Deps []string
}

// Run executes the full pipeline over the ranked site list. It is a Stream
// driven with one batch spanning every site, so the world's zones and
// landing pages must all be materialized; checkpointing (Config.Checkpoint,
// Config.OnCheckpoint) behaves exactly as on any other Stream.
func Run(ctx context.Context, sites []string, cfg Config) (*Results, error) {
	defer telemetry.StartSpan("measure.run").End()
	st, err := NewStream(sites, cfg)
	if err != nil {
		return nil, err
	}
	if err := st.ResolveBatch(ctx, 0, len(sites)); err != nil {
		return nil, err
	}
	st.Seal()
	if err := st.MeasureBatch(ctx, 0, len(sites)); err != nil {
		return nil, err
	}
	return st.Finish(ctx)
}

type measurer struct {
	cfg    Config
	chains bool // Config.Chains is set and enabled
	cdn    *compiledCDNMap
	diag   *diagCollector
}

// classifySite measures one site with the DNS, CA and CDN classifiers and,
// on chain runs, the chain classifier, in that order. A classifier that
// fails leaves its sub-result uncharacterized, so that under conc.Collect
// the site comes back well-formed; the remaining classifiers still run, as
// a dead domain must not cost the site its CA or CDN measurement. Under
// conc.FailFast the first failure aborts the run.
func (m *measurer) classifySite(ctx context.Context, r *SiteResult, fqdn string, ns []string, nsConc map[string]int) error {
	var err error
	start := time.Now()
	if r.DNS, err = m.classifySiteDNS(ctx, fqdn, ns, nsConc); err != nil {
		r.DNS = SiteDNS{Class: core.ClassUnknown}
	}
	if err = m.observe(stageDNS, start, r.Site, err); err != nil {
		return siteError(r.Site, stageDNS, err)
	}
	start = time.Now()
	if r.CA, err = m.classifySiteCA(ctx, fqdn); err != nil {
		r.CA = SiteCA{Class: core.ClassUnknown}
	}
	if err = m.observe(stageCA, start, r.Site, err); err != nil {
		return siteError(r.Site, stageCA, err)
	}
	start = time.Now()
	if r.CDN, err = m.classifySiteCDN(ctx, r.Site, fqdn); err != nil {
		r.CDN = SiteCDN{Class: core.ClassUnknown}
	}
	if err = m.observe(stageCDN, start, r.Site, err); err != nil {
		return siteError(r.Site, stageCDN, err)
	}
	if !m.chains {
		return nil
	}
	start = time.Now()
	if r.Chains, err = m.classifySiteChains(ctx, r.Site); err != nil {
		r.Chains = nil
	}
	if err = m.observe(stageChain, start, r.Site, err); err != nil {
		return siteError(r.Site, stageChain, err)
	}
	return nil
}

func siteError(site string, st stage, err error) error {
	return fmt.Errorf("site %s %s: %w", site, st, err)
}

// concentration counts, per nameserver registrable domain, the number of
// sites with at least one nameserver there. One scratch set is reused across
// sites (the loop is sequential) instead of allocating a map per site.
func concentration(nsSets [][]string) map[string]int {
	out := make(map[string]int)
	seen := make(map[string]bool, 8)
	for _, set := range nsSets {
		clear(seen)
		for _, ns := range set {
			if rd := publicsuffix.RegistrableDomain(ns); rd != "" && !seen[rd] {
				seen[rd] = true
				out[rd]++
			}
		}
	}
	return out
}
