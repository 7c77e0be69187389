package measure

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"depscope/internal/conc"
	"depscope/internal/core"
	"depscope/internal/dnsmsg"
	"depscope/internal/publicsuffix"
	"depscope/internal/telemetry"
)

// Stream is the measurement pipeline, driven one batch of sites at a time
// so that landing pages can be materialized and released per batch. The
// driving sequence is
//
//	st, _ := NewStream(sites, cfg)
//	for each batch: st.ResolveBatch(ctx, lo, hi)   // zones must exist
//	st.Seal()                                      // concentration signal
//	for each batch: st.MeasureBatch(ctx, lo, hi)   // pages must exist
//	res, _ := st.Finish(ctx)
//
// and Run is this sequence with one batch spanning every site. Results do
// not depend on the batch size or the worker count (the stream tests pin
// both). The split exists because of two global signals: the §3.1
// concentration signal needs every site's NS set before any site can be
// classified (hence the Seal barrier between the resolve and measure
// sweeps), and the chain vendor population is only complete after the last
// batch (hence vendor hosts are gathered per batch, while the batch's pages
// are still live, and resolved in Finish).
//
// A checkpointed stream (Config.Checkpoint / Config.OnCheckpoint) reuses
// still-valid site results in MeasureBatch, records the batch's completed
// sites once the batch is measured, and emits one snapshot at the end of
// every batch once the run has measured a site itself. The last batch's
// snapshot is the complete run; a resume that reuses every site emits
// nothing, since the prior checkpoint already holds every entry.
type Stream struct {
	m     *measurer
	sites []string
	// fqdns[i] is sites[i] canonicalized once, the form every resolver
	// question about the site is asked in.
	fqdns  []string
	nsSets [][]string
	res    *Results

	ck *ckptRun // nil unless checkpointed

	sealed   bool
	finished bool

	// hostCand[i] holds site i's deduplicated (registrable domain, host)
	// resource pairs, captured during the site's batch. Finish filters them
	// through the complete vendor population, in site order. Nil unless
	// chains are enabled.
	hostCand [][]rdHost
}

type rdHost struct{ rd, host string }

// NewStream validates cfg and prepares a stream over the full ranked site
// list (known up front; only the per-site artifacts stream). A prior
// checkpoint is validated against the run label here.
func NewStream(sites []string, cfg Config) (*Stream, error) {
	if cfg.Resolver == nil {
		return nil, fmt.Errorf("measure: Config.Resolver is required")
	}
	if cfg.ConcentrationThreshold == 0 {
		cfg.ConcentrationThreshold = 50
	}
	m := &measurer{
		cfg:    cfg,
		chains: cfg.Chains != nil && cfg.Chains.Enabled(),
		diag:   &diagCollector{},
	}
	ck, err := newCkptRun(&cfg, len(sites))
	if err != nil {
		return nil, err
	}
	fqdns := make([]string, len(sites))
	for i, site := range sites {
		fqdns[i] = dnsmsg.CanonicalName(site)
	}
	return &Stream{m: m, sites: sites, fqdns: fqdns, nsSets: make([][]string, len(sites)), ck: ck}, nil
}

// ResolveBatch runs the pass-1 NS resolution for sites [lo, hi). The
// sites' zones must be materialized; pages are not needed. Under conc.Collect
// an unresolvable site keeps a nil NS set — the DNS stage then reports it
// uncharacterized — and the error is recorded instead of aborting the run.
func (s *Stream) ResolveBatch(ctx context.Context, lo, hi int) error {
	if s.sealed {
		panic("measure: Stream.ResolveBatch after Seal")
	}
	m := s.m
	defer telemetry.StartSpan("measure.resolve_pass").End()
	return conc.ForEach(ctx, hi-lo, m.cfg.Workers, conc.FailFast, func(ctx context.Context, j int) error {
		i := lo + j
		start := time.Now()
		ns, err := m.cfg.Resolver.NS(ctx, s.fqdns[i])
		if abort := m.observe(stageResolve, start, s.sites[i], err); abort != nil {
			return fmt.Errorf("NS(%s): %w", s.sites[i], abort)
		}
		if err == nil {
			sort.Strings(ns)
			s.nsSets[i] = ns
		}
		return nil
	})
}

// Seal closes pass 1: the concentration signal is computed over the full
// population and the CDN map is compiled — deferred to here because
// per-site CNAME→CDN entries (private CDNs) appear while site zones
// materialize, and Config.CDNMap may alias that live map.
func (s *Stream) Seal() {
	if s.sealed {
		panic("measure: Stream.Seal called twice")
	}
	s.sealed = true
	s.m.cdn = s.m.cfg.CDNMap.compile()
	s.res = &Results{
		NSConcentration: concentration(s.nsSets),
		CDNToDNS:        make(map[string]ProviderDep),
	}
	s.res.Sites = make([]SiteResult, len(s.sites))
	if s.m.chains {
		s.hostCand = make([][]rdHost, len(s.sites))
	}
}

// MeasureBatch runs the pass-2 per-site classification for sites [lo, hi),
// whose pages must currently be materialized. Work within the batch fans
// out index-placed over the worker pool, so results are independent of the
// worker count. For chain runs it then captures the batch's vendor-host
// candidates sequentially, before the caller releases the pages. A
// checkpointed stream fingerprints each site on the worker pool while its
// page is live, reuses the prior result when the fingerprints match, and
// once the batch is measured records its sites and emits the checkpoint.
func (s *Stream) MeasureBatch(ctx context.Context, lo, hi int) error {
	if !s.sealed {
		panic("measure: Stream.MeasureBatch before Seal")
	}
	m := s.m
	// fps[j] is site lo+j's fingerprint, taken while its page is live; nil
	// unless checkpointed.
	var fps []string
	var reused atomic.Int64
	if s.ck != nil {
		fps = make([]string, hi-lo)
	}
	sitePass := telemetry.StartSpan("measure.site_pass")
	err := conc.ForEach(ctx, hi-lo, m.cfg.Workers, conc.FailFast, func(ctx context.Context, j int) error {
		i := lo + j
		if s.ck != nil {
			var prior *SiteResult
			fps[j], prior = s.ck.lookup(s.sites[i])
			if prior != nil {
				// Reuse the checkpointed result, re-anchoring identity and
				// rank in case the edited universe reordered the list.
				r := &s.res.Sites[i]
				*r = *prior
				r.Site, r.Rank = s.sites[i], i+1
				reused.Add(1)
				return nil
			}
		}
		r := &s.res.Sites[i]
		r.Site, r.Rank = s.sites[i], i+1
		return m.classifySite(ctx, r, s.fqdns[i], s.nsSets[i], s.res.NSConcentration)
	})
	sitePass.End()
	if err != nil {
		return err
	}

	if s.hostCand != nil && m.cfg.Pages != nil {
		for i := lo; i < hi; i++ {
			if len(s.res.Sites[i].Chains) == 0 {
				continue
			}
			page := m.cfg.Pages.Page(s.sites[i])
			if page == nil {
				continue
			}
			var cand []rdHost
			for _, r := range page.Resources {
				if r.Host == "" {
					continue
				}
				rd := publicsuffix.RegistrableDomain(r.Host)
				if rd == "" {
					continue
				}
				dup := false
				for _, c := range cand {
					if c.host == r.Host {
						dup = true
						break
					}
				}
				if !dup {
					cand = append(cand, rdHost{rd: rd, host: r.Host})
				}
			}
			s.hostCand[i] = cand
		}
	}

	if s.ck == nil {
		return nil
	}
	return s.ck.endBatch(s.sites[lo:hi], fps, s.res.Sites[lo:hi], hi-lo-int(reused.Load()))
}

// Finish runs the cross-site pair accounting and the pass-3/pass-4
// inter-service measurements and returns the completed Results. It emits no
// checkpoint: the last batch's snapshot already holds every site. Pages may
// already be fully released: pass 3 needs only the per-site aggregates and
// the resident zones, and pass 4 replays the vendor-host candidates
// captured batch by batch.
func (s *Stream) Finish(ctx context.Context) (*Results, error) {
	if !s.sealed {
		panic("measure: Stream.Finish before Seal")
	}
	if s.finished {
		panic("measure: Stream.Finish called twice")
	}
	s.finished = true
	m := s.m
	res := s.res

	res.EvidenceCounts = make(map[string]int)
	for i := range res.Sites {
		if res.Sites[i].DNS.Class == core.ClassUnknown {
			uncharacterizedSites.Inc()
		}
		for _, pair := range res.Sites[i].DNS.Pairs {
			res.PairStats.Total++
			switch pair.Class {
			case Private:
				res.PairStats.Private++
			case Third:
				res.PairStats.Third++
			default:
				res.PairStats.Uncharacterized++
			}
			if pair.Evidence != "" {
				res.EvidenceCounts[pair.Evidence]++
			}
		}
	}

	interPass := telemetry.StartSpan("measure.interservice_pass")
	err := m.interService(ctx, res)
	interPass.End()
	if err != nil {
		return nil, err
	}

	if m.chains {
		chainPass := telemetry.StartSpan("measure.chain_pass")
		err = s.chainFinish(ctx, res)
		chainPass.End()
		if err != nil {
			return nil, err
		}
	}
	res.Diagnostics = m.diag.snapshot(m.chains, m.cfg.Resolver.Stats())
	return res, nil
}
