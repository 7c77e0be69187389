package resolver

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"depscope/internal/dnsmsg"
	"depscope/internal/dnszone"
	"depscope/internal/telemetry"
)

// ErrServFail is returned when the authority answered SERVFAIL or REFUSED.
var ErrServFail = errors.New("resolver: server failure")

// Process-wide telemetry, aggregated across all resolver instances (each
// snapshot run builds its own resolver; the registry sums them).
var (
	telQueries = telemetry.Counter("resolver_queries_total", "DNS lookups issued (all resolver instances)")
	telHits    = telemetry.Counter("resolver_cache_hits_total", "lookups served from the resolver cache")
	telMisses  = telemetry.Counter("resolver_cache_misses_total", "lookups that went to the transport")
	telDeduped = telemetry.Counter("resolver_singleflight_dedup_total",
		"lookups that joined an already in-flight transport exchange for the same (name, type)")
)

// lookupHist returns the upstream-latency histogram for one query type,
// pre-registered for the types the pipeline issues so the miss path does a
// map read, not a registry registration.
var lookupHists = map[dnsmsg.Type]*telemetry.HistogramMetric{
	dnsmsg.TypeNS:    newLookupHist("ns"),
	dnsmsg.TypeSOA:   newLookupHist("soa"),
	dnsmsg.TypeA:     newLookupHist("a"),
	dnsmsg.TypeCNAME: newLookupHist("cname"),
}

func newLookupHist(rrtype string) *telemetry.HistogramMetric {
	return telemetry.Histogram("resolver_lookup_"+rrtype+"_seconds",
		"transport exchange latency of cache-missing "+strings.ToUpper(rrtype)+" lookups", nil)
}

func lookupHist(qtype dnsmsg.Type) *telemetry.HistogramMetric {
	if h, ok := lookupHists[qtype]; ok {
		return h
	}
	return telemetry.Histogram("resolver_lookup_other_seconds",
		"transport exchange latency of cache-missing lookups of uncommon types", nil)
}

// Result is the outcome of one lookup.
type Result struct {
	RCode     dnsmsg.RCode
	Answers   []dnsmsg.Record
	Authority []dnsmsg.Record
}

// NXDomain reports whether the lookup said the name does not exist.
func (r Result) NXDomain() bool { return r.RCode == dnsmsg.RCodeNameError }

type cacheKey struct {
	name  string
	qtype dnsmsg.Type
}

type cacheEntry struct {
	res     Result
	expires time.Time
}

// flight is one in-progress transport exchange. res/err are written once,
// before done is closed; waiters read them only after the close.
type flight struct {
	done chan struct{}
	res  Result
	err  error
}

// Resolver is a stub resolver over a Transport. Over an in-process store
// (ZoneDirect) every lookup asks the store, which answers without
// allocating, so there is nothing to cache. Over any other transport it
// keeps a TTL cache, and misses are deduplicated through a singleflight
// table: concurrent lookups for the same (name, type) issue exactly one
// transport exchange. One mutex guards both maps; a network exchange costs
// far more than the lock.
type Resolver struct {
	transport Transport
	// zones is a ZoneDirect transport's store; nil for a cached resolver.
	zones *dnszone.Store

	// now is the clock, injectable for cache-expiry tests.
	now func() time.Time

	mu      sync.Mutex
	entries map[cacheKey]cacheEntry
	flights map[cacheKey]*flight

	// Per-instance counters behind Stats; the same events also feed the
	// process-wide telemetry registry (resolver_queries_total and friends).
	queries atomic.Int64
	hits    atomic.Int64
	deduped atomic.Int64
}

// Cache lifetimes: NXDOMAIN/NODATA results live negativeTTL, and a
// positive result lives its smallest answer TTL, capped at maxTTL.
const (
	negativeTTL = 60 * time.Second
	maxTTL      = time.Hour
)

// Option configures a Resolver's cache; a resolver over ZoneDirect has
// none, so options do not apply to it.
type Option func(*Resolver)

// WithClock sets the cache clock (for tests).
func WithClock(now func() time.Time) Option {
	return func(r *Resolver) { r.now = now }
}

// New creates a resolver using transport. Over ZoneDirect the resolver
// asks the store on every lookup and has no cache; over any other
// transport (including one that wraps ZoneDirect) it caches.
func New(transport Transport, opts ...Option) *Resolver {
	r := &Resolver{transport: transport, now: time.Now}
	if zd, ok := transport.(ZoneDirect); ok && zd.Store != nil {
		r.zones = zd.Store
		return r
	}
	for _, o := range opts {
		o(r)
	}
	r.entries = make(map[cacheKey]cacheEntry)
	r.flights = make(map[cacheKey]*flight)
	return r
}

// Stats is a point-in-time snapshot of the resolver's query counters.
type Stats struct {
	// Queries is the total number of Lookup calls.
	Queries int64
	// Hits is how many of them were served from the cache (including
	// lookups resolved by joining another caller's in-flight exchange);
	// always 0 without a cache.
	Hits int64
	// Deduped is how many lookups joined an exchange already in flight for
	// the same (name, type) instead of issuing their own — the singleflight
	// suppression count. Every deduplicated lookup that succeeds is also a
	// Hit, so Queries - Hits is the number of transport exchanges plus the
	// joined lookups that failed or whose context ended first.
	Deduped int64
	// Cached reports whether the resolver has a cache at all: false over
	// ZoneDirect, where every lookup asks the store.
	Cached bool
}

// HitRate is the fraction of lookups served from cache, 0 when idle.
func (s Stats) HitRate() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Queries)
}

// Stats returns a snapshot of this instance's lookup and cache-hit
// counters. It is the per-run, per-resolver view of the same events the
// process-wide telemetry registry aggregates across instances, and it backs
// the Diagnostics.Resolver field of measurement results.
func (r *Resolver) Stats() Stats {
	return Stats{Queries: r.queries.Load(), Hits: r.hits.Load(), Deduped: r.deduped.Load(), Cached: r.zones == nil}
}

// Lookup queries (name, qtype). Over ZoneDirect it asks the store. Otherwise
// it serves from cache when possible, and a miss for a (name, type) that
// another goroutine is already fetching joins that exchange instead of
// issuing its own (counted in Stats.Deduped and
// resolver_singleflight_dedup_total). A joined lookup whose ctx ends first
// returns ctx.Err() and leaves the exchange running for the others.
func (r *Resolver) Lookup(ctx context.Context, name string, qtype dnsmsg.Type) (Result, error) {
	r.queries.Add(1)
	telQueries.Inc()
	if r.zones != nil {
		res := r.zones.Lookup(name, qtype)
		return checkRCode(Result{res.RCode, res.Answers, res.Authority}, name, qtype)
	}
	key := cacheKey{dnsmsg.CanonicalName(name), qtype}
	now := r.now()
	r.mu.Lock()
	if e, ok := r.entries[key]; ok && now.Before(e.expires) {
		r.mu.Unlock()
		r.hits.Add(1)
		telHits.Inc()
		return e.res, nil
	}
	if f, ok := r.flights[key]; ok {
		r.mu.Unlock()
		r.deduped.Add(1)
		telDeduped.Inc()
		select {
		case <-f.done:
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
		if f.err != nil {
			return Result{}, f.err
		}
		r.hits.Add(1)
		telHits.Inc()
		return f.res, nil
	}
	f := &flight{done: make(chan struct{})}
	r.flights[key] = f
	r.mu.Unlock()
	telMisses.Inc()

	f.res, f.err = r.exchange(ctx, key)
	ttl := cacheTTL(f.res)
	r.mu.Lock()
	if f.err == nil && ttl > 0 {
		r.entries[key] = cacheEntry{res: f.res, expires: now.Add(ttl)}
	}
	delete(r.flights, key)
	r.mu.Unlock()
	close(f.done)
	return f.res, f.err
}

// exchange performs the transport round trip for key.
func (r *Resolver) exchange(ctx context.Context, key cacheKey) (Result, error) {
	q := dnsmsg.NewQuery(0, key.name, key.qtype)
	exchangeStart := time.Now()
	resp, err := r.transport.Exchange(ctx, q)
	lookupHist(key.qtype).ObserveDuration(time.Since(exchangeStart))
	if err != nil {
		return Result{}, err
	}
	return checkRCode(Result{resp.Header.RCode, resp.Answers, resp.Authority}, key.name, key.qtype)
}

// checkRCode passes an authority's answer (success or NXDOMAIN) through and
// turns any other RCODE into ErrServFail.
func checkRCode(res Result, name string, qtype dnsmsg.Type) (Result, error) {
	if res.RCode == dnsmsg.RCodeSuccess || res.RCode == dnsmsg.RCodeNameError {
		return res, nil
	}
	return Result{RCode: res.RCode}, fmt.Errorf("%w: %s %s -> %s", ErrServFail, dnsmsg.CanonicalName(name), qtype, res.RCode)
}

// cacheTTL is how long res may be served from cache: its smallest answer
// TTL capped at maxTTL, or negativeTTL when it has no answers. Zero means
// do not cache.
func cacheTTL(res Result) time.Duration {
	if len(res.Answers) == 0 {
		return negativeTTL
	}
	ttl := maxTTL
	for _, a := range res.Answers {
		ttl = min(ttl, time.Duration(a.TTL)*time.Second)
	}
	return ttl
}

// FlushCache drops all cached entries (in-flight exchanges are unaffected).
func (r *Resolver) FlushCache() {
	r.mu.Lock()
	clear(r.entries)
	r.mu.Unlock()
}

// NS returns the nameserver host names of domain (the paper's DIG_NS(w)).
// The result is empty (not an error) on NXDOMAIN or NODATA.
func (r *Resolver) NS(ctx context.Context, domain string) ([]string, error) {
	res, err := r.Lookup(ctx, domain, dnsmsg.TypeNS)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, a := range res.Answers {
		if a.Type == dnsmsg.TypeNS {
			if out == nil {
				out = make([]string, 0, len(res.Answers))
			}
			out = append(out, a.Target)
		}
	}
	return out, nil
}

// SOA returns the start-of-authority data governing name: the answer SOA if
// present, otherwise the SOA from the authority section (as dig reports for
// NODATA/NXDOMAIN responses). ok is false when no SOA is visible at all.
func (r *Resolver) SOA(ctx context.Context, name string) (dnsmsg.SOAData, bool, error) {
	res, err := r.Lookup(ctx, name, dnsmsg.TypeSOA)
	if err != nil {
		return dnsmsg.SOAData{}, false, err
	}
	for _, a := range res.Answers {
		if a.Type == dnsmsg.TypeSOA && a.Data != nil {
			return a.Data.SOA, true, nil
		}
	}
	for _, a := range res.Authority {
		if a.Type == dnsmsg.TypeSOA && a.Data != nil {
			return a.Data.SOA, true, nil
		}
	}
	return dnsmsg.SOAData{}, false, nil
}

// Authority returns the zone of authority governing name: the owner name of
// the SOA record visible for it (answer section at a zone apex, authority
// section for NODATA/NXDOMAIN) along with the SOA data. ok is false when no
// SOA is visible.
func (r *Resolver) Authority(ctx context.Context, name string) (origin string, soa dnsmsg.SOAData, ok bool, err error) {
	res, err := r.Lookup(ctx, name, dnsmsg.TypeSOA)
	if err != nil {
		return "", dnsmsg.SOAData{}, false, err
	}
	for _, a := range res.Answers {
		if a.Type == dnsmsg.TypeSOA && a.Data != nil {
			return dnsmsg.CanonicalName(a.Name), a.Data.SOA, true, nil
		}
	}
	for _, a := range res.Authority {
		if a.Type == dnsmsg.TypeSOA && a.Data != nil {
			return dnsmsg.CanonicalName(a.Name), a.Data.SOA, true, nil
		}
	}
	return "", dnsmsg.SOAData{}, false, nil
}

// CNAME returns the canonical-name target of host, or "" when host has no
// CNAME record (the paper's dig CNAME probe used for CDN detection).
func (r *Resolver) CNAME(ctx context.Context, host string) (string, error) {
	res, err := r.Lookup(ctx, host, dnsmsg.TypeCNAME)
	if err != nil {
		return "", err
	}
	for _, a := range res.Answers {
		if a.Type == dnsmsg.TypeCNAME {
			return a.Target, nil
		}
	}
	return "", nil
}

// CNAMEChain resolves host's full CNAME chain (host first, final target
// last). A host with no CNAME yields just [host].
func (r *Resolver) CNAMEChain(ctx context.Context, host string) ([]string, error) {
	chain := make([]string, 1, 4) // most chains are 1-3 hops; avoid regrowth
	chain[0] = dnsmsg.CanonicalName(host)
	for i := 0; i < 16; i++ {
		target, err := r.CNAME(ctx, chain[len(chain)-1])
		if err != nil {
			return chain, err
		}
		if target == "" {
			return chain, nil
		}
		target = dnsmsg.CanonicalName(target)
		for _, prev := range chain {
			if prev == target {
				return chain, fmt.Errorf("resolver: CNAME loop at %s", target)
			}
		}
		chain = append(chain, target)
	}
	return chain, fmt.Errorf("resolver: CNAME chain for %s too long", host)
}

// Addrs returns the IPv4 addresses of host, following CNAMEs.
func (r *Resolver) Addrs(ctx context.Context, host string) ([]string, error) {
	res, err := r.Lookup(ctx, host, dnsmsg.TypeA)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, a := range res.Answers {
		if a.Type == dnsmsg.TypeA {
			out = append(out, fmt.Sprintf("%d.%d.%d.%d", a.Addr[0], a.Addr[1], a.Addr[2], a.Addr[3]))
		}
	}
	return out, nil
}
