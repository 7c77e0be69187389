package measure

import (
	"context"
	"fmt"
	"sort"
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
// still-valid NS sets in ResolveBatch and site results in MeasureBatch, and
// emits the pass-1 boundary snapshot as the first MeasureBatch starts, one
// snapshot every CheckpointEvery completed sites, and the final snapshot in
// Finish.
type Stream struct {
	m     *measurer
	sites []string
	// fqdns[i] is sites[i] canonicalized once, the form every resolver
	// question about the site is asked in.
	fqdns  []string
	nsSets [][]string
	res    *Results

	ck *ckptRun // nil unless checkpointed

	sealed    bool
	measuring bool // the first MeasureBatch has emitted the pass-1 snapshot
	finished  bool

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
		stages: defaultStages(),
		diag:   newDiagCollector(),
	}
	if m.chainEnabled() {
		m.stages = append(m.stages, chainStage{})
	}
	m.initTelemetry()
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

// Len returns the number of sites in the stream.
func (s *Stream) Len() int { return len(s.sites) }

// SiteResult exposes site i's (possibly not yet measured) result row.
func (s *Stream) SiteResult(i int) *SiteResult { return &s.res.Sites[i] }

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
	err := conc.ForEach(ctx, hi-lo, m.cfg.Workers, conc.FailFast, func(ctx context.Context, j int) error {
		i := lo + j
		if ns, ok := s.ck.priorNS(s.sites[i]); ok {
			s.nsSets[i] = ns
			return nil
		}
		start := time.Now()
		ns, err := m.cfg.Resolver.NS(ctx, s.fqdns[i])
		m.resolveHist.ObserveDuration(time.Since(start))
		m.diag.observe(stageResolve, err)
		if err != nil {
			if m.cfg.ErrorPolicy == conc.Collect {
				m.diag.record(s.sites[i], stageResolve, err)
				s.nsSets[i] = nil
				return nil
			}
			return fmt.Errorf("NS(%s): %w", s.sites[i], err)
		}
		sort.Strings(ns)
		s.nsSets[i] = ns
		return nil
	})
	if err != nil || s.ck == nil {
		return err
	}
	for i := lo; i < hi; i++ {
		s.ck.recordNS(s.sites[i], s.nsSets[i])
	}
	return nil
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
		CAToDNS:         make(map[string]ProviderDep),
		CAToCDN:         make(map[string]ProviderDep),
	}
	s.res.Sites = make([]SiteResult, len(s.sites))
	if s.m.chainEnabled() {
		s.hostCand = make([][]rdHost, len(s.sites))
	}
}

// MeasureBatch runs the pass-2 per-site classification for sites [lo, hi),
// whose pages must currently be materialized. Work within the batch fans
// out index-placed over the worker pool, so results are independent of the
// worker count. For chain runs it then captures the batch's vendor-host
// candidates sequentially, before the caller releases the pages.
func (s *Stream) MeasureBatch(ctx context.Context, lo, hi int) error {
	if !s.sealed {
		panic("measure: Stream.MeasureBatch before Seal")
	}
	if !s.measuring {
		s.measuring = true
		if err := s.ck.emitNow(); err != nil {
			return err
		}
	}
	m := s.m
	sitePass := telemetry.StartSpan("measure.site_pass")
	err := conc.ForEach(ctx, hi-lo, m.cfg.Workers, conc.FailFast, func(ctx context.Context, j int) error {
		i := lo + j
		if prior := s.ck.priorResult(s.sites[i]); prior != nil {
			// Reuse the checkpointed result, re-anchoring identity and rank
			// in case the edited universe reordered the list.
			r := &s.res.Sites[i]
			*r = *prior
			r.Site, r.Rank = s.sites[i], i+1
			return s.ck.siteDone(r.Site, r)
		}
		sc := &SiteContext{
			Site:   s.sites[i],
			Rank:   i + 1,
			NS:     s.nsSets[i],
			Conc:   s.res.NSConcentration,
			Result: &s.res.Sites[i],
			fqdn:   s.fqdns[i],
			m:      m,
		}
		sc.Result.Site, sc.Result.Rank = sc.Site, sc.Rank
		if err := m.dispatch(ctx, sc); err != nil {
			return err
		}
		return s.ck.siteDone(sc.Site, sc.Result)
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
	return nil
}

// Finish runs the cross-site pair accounting and the pass-3/pass-4
// inter-service measurements, emits the final checkpoint snapshot, and
// returns the completed Results. Pages may
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

	if m.chainEnabled() {
		chainPass := telemetry.StartSpan("measure.chain_pass")
		err = s.chainFinish(ctx, res)
		chainPass.End()
		if err != nil {
			return nil, err
		}
	}
	// Final snapshot: the complete run, usable later as the baseline for an
	// edited-universe incremental re-measurement.
	if err := s.ck.emitNow(); err != nil {
		return nil, err
	}

	res.Diagnostics = m.diag.snapshot(m.stageOrder(), m.cfg.Resolver.Stats())
	res.Telemetry = telemetry.Default.Snapshot()
	return res, nil
}
