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
	telShards = telemetry.Gauge("resolver_cache_shards",
		"cache shard count of the most recently constructed cached resolver")
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

// flight is one in-progress transport exchange. The done channel is created
// lazily, under the shard lock, by the first waiter that joins the flight —
// the uncontended miss (the overwhelmingly common case) never pays for it.
// res/err are written exactly once before done is closed.
//
// Flights are recycled through flightPool: refs counts the leader plus every
// joined waiter, and whoever drops it to zero clears and repools the struct.
// Waiters join (and increment refs) only under the shard lock while the
// flight is still in the table, so the count can never hit zero early.
type flight struct {
	done chan struct{}
	refs atomic.Int32
	res  Result
	err  error
}

var flightPool = sync.Pool{New: func() any { return new(flight) }}

// release drops one reference; the last holder resets and repools the
// flight. Callers must not touch the flight after releasing it.
func (f *flight) release() {
	if f.refs.Add(-1) == 0 {
		*f = flight{}
		flightPool.Put(f)
	}
}

// cacheShard is one lock domain of the sharded cache: the TTL entries plus
// the singleflight table for keys currently being fetched.
type cacheShard struct {
	mu      sync.Mutex
	entries map[cacheKey]cacheEntry
	flights map[cacheKey]*flight
}

// defaultShards is the default cache shard count, sized so the unified
// pipeline's worker pool (bounded by GOMAXPROCS) rarely collides on a lock.
const defaultShards = 64

// fnv1a hashes s with FNV-1a, a cheap inline hash.
func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Resolver is a stub resolver over a Transport. Over an in-process store
// (ZoneDirect) every lookup asks the store, which answers without
// allocating, so there is nothing to cache. Over any other transport it
// keeps a TTL cache, sharded (power-of-two shard count, FNV-hashed keys) so
// concurrent workers do not serialize on one lock, and misses are
// deduplicated through a singleflight table: concurrent lookups for the
// same (name, type) issue exactly one transport exchange.
type Resolver struct {
	transport Transport
	// zones is a ZoneDirect transport's store; nil for a cached resolver.
	zones *dnszone.Store

	// now is the clock, injectable for cache-expiry tests.
	now func() time.Time

	// shards has power-of-two length; shardMask == len(shards)-1.
	shards    []cacheShard
	shardMask uint64

	// Per-instance counters behind Stats, kept off the cache mutexes so the
	// accounting is lock-free; the same events also feed the process-wide
	// telemetry registry (resolver_queries_total and friends).
	queries atomic.Int64
	hits    atomic.Int64
	deduped atomic.Int64
}

func (r *Resolver) shard(key cacheKey) *cacheShard {
	h := fnv1a(key.name) ^ uint64(key.qtype)*0x9E3779B97F4A7C15
	return &r.shards[h&r.shardMask]
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

// WithShards sets the cache shard count, rounded up to the next power of
// two; values below one select a single shard.
func WithShards(n int) Option {
	return func(r *Resolver) {
		p := 1
		for p < n {
			p <<= 1
		}
		r.shards = make([]cacheShard, p)
	}
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
	if r.shards == nil {
		r.shards = make([]cacheShard, defaultShards)
	}
	r.shardMask = uint64(len(r.shards) - 1)
	for i := range r.shards {
		r.shards[i].entries = make(map[cacheKey]cacheEntry)
		r.shards[i].flights = make(map[cacheKey]*flight)
	}
	telShards.Set(int64(len(r.shards)))
	return r
}

// Shards returns the cache shard count: a power of two, or 0 for a
// resolver over ZoneDirect, which has no cache.
func (r *Resolver) Shards() int { return len(r.shards) }

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
	// Hit, so Queries - Hits remains the number of transport exchanges.
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

// queryPool recycles query messages for the miss path. Safe because neither
// transport retains the query: UDPTransport packs a private copy and
// ZoneDirect's Reply copies the question section.
var queryPool = sync.Pool{New: func() any {
	return &dnsmsg.Message{Questions: make([]dnsmsg.Question, 1)}
}}

// Lookup queries (name, qtype). Over ZoneDirect it asks the store. Otherwise
// it serves from cache when possible, and a miss for a (name, type) that
// another goroutine is already fetching joins that exchange instead of
// issuing its own (counted in Stats.Deduped and
// resolver_singleflight_dedup_total).
func (r *Resolver) Lookup(ctx context.Context, name string, qtype dnsmsg.Type) (Result, error) {
	r.queries.Add(1)
	telQueries.Inc()
	if r.zones != nil {
		res := r.zones.Lookup(name, qtype)
		return checkRCode(Result{res.RCode, res.Answers, res.Authority}, name, qtype)
	}
	key := cacheKey{dnsmsg.CanonicalName(name), qtype}
	now := r.now()
	sh := r.shard(key)
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok && now.Before(e.expires) {
		sh.mu.Unlock()
		r.hits.Add(1)
		telHits.Inc()
		return e.res, nil
	}
	if f, ok := sh.flights[key]; ok {
		if f.done == nil {
			f.done = make(chan struct{})
		}
		done := f.done
		f.refs.Add(1)
		sh.mu.Unlock()
		r.deduped.Add(1)
		telDeduped.Inc()
		select {
		case <-done:
		case <-ctx.Done():
			f.release()
			return Result{}, ctx.Err()
		}
		res, err := f.res, f.err
		f.release()
		if err != nil {
			return Result{}, err
		}
		r.hits.Add(1)
		telHits.Inc()
		return res, nil
	}
	f := flightPool.Get().(*flight)
	f.refs.Store(1)
	sh.flights[key] = f
	sh.mu.Unlock()
	telMisses.Inc()

	res, err := r.exchange(ctx, key, now)
	f.res, f.err = res, err
	sh.mu.Lock()
	delete(sh.flights, key)
	done := f.done
	sh.mu.Unlock()
	if done != nil {
		// Waiters read res/err only after the close, which orders the writes
		// above ahead of their reads.
		close(done)
	}
	f.release()
	return res, err
}

// exchange performs the transport round trip for key and caches the result.
func (r *Resolver) exchange(ctx context.Context, key cacheKey, now time.Time) (Result, error) {
	q := queryPool.Get().(*dnsmsg.Message)
	q.Header = dnsmsg.Header{RecursionDesired: true}
	q.Questions = q.Questions[:1]
	q.Questions[0] = dnsmsg.Question{Name: key.name, Type: key.qtype, Class: dnsmsg.ClassIN}
	q.Answers, q.Authority, q.Additional = nil, nil, nil
	exchangeStart := time.Now()
	resp, err := r.transport.Exchange(ctx, q)
	lookupHist(key.qtype).ObserveDuration(time.Since(exchangeStart))
	queryPool.Put(q)
	if err != nil {
		return Result{}, err
	}
	res, err := checkRCode(Result{resp.Header.RCode, resp.Answers, resp.Authority}, key.name, key.qtype)
	// Only the record slices are retained; the message wrapper goes back to
	// the transport pool.
	releaseResponse(resp)
	if err == nil {
		r.store(key, res, now)
	}
	return res, err
}

// checkRCode passes an authority's answer (success or NXDOMAIN) through and
// turns any other RCODE into ErrServFail.
func checkRCode(res Result, name string, qtype dnsmsg.Type) (Result, error) {
	if res.RCode == dnsmsg.RCodeSuccess || res.RCode == dnsmsg.RCodeNameError {
		return res, nil
	}
	return Result{RCode: res.RCode}, fmt.Errorf("%w: %s %s -> %s", ErrServFail, dnsmsg.CanonicalName(name), qtype, res.RCode)
}

func (r *Resolver) store(key cacheKey, res Result, now time.Time) {
	ttl := negativeTTL
	if len(res.Answers) > 0 {
		minTTL := time.Duration(res.Answers[0].TTL) * time.Second
		for _, a := range res.Answers[1:] {
			if d := time.Duration(a.TTL) * time.Second; d < minTTL {
				minTTL = d
			}
		}
		if minTTL > maxTTL {
			minTTL = maxTTL
		}
		ttl = minTTL
	}
	if ttl <= 0 {
		return
	}
	sh := r.shard(key)
	sh.mu.Lock()
	sh.entries[key] = cacheEntry{res: res, expires: now.Add(ttl)}
	sh.mu.Unlock()
}

// FlushCache drops all cached entries (in-flight exchanges are unaffected).
func (r *Resolver) FlushCache() {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		sh.entries = make(map[cacheKey]cacheEntry)
		sh.mu.Unlock()
	}
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
