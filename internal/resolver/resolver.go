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
		"cache shard count of the most recently constructed resolver")
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

// Result is the outcome of one cached lookup.
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

// Resolver is a caching stub resolver over a Transport. The cache is sharded
// (power-of-two shard count, FNV-hashed keys) so concurrent workers do not
// serialize on one lock, and misses are deduplicated through a singleflight
// table: concurrent lookups for the same (name, type) issue exactly one
// transport exchange.
type Resolver struct {
	transport Transport

	// now is the clock, injectable for cache-expiry tests.
	now func() time.Time

	// shards has power-of-two length; shardMask == len(shards)-1.
	shards    []cacheShard
	shardMask uint64
	// shardHint is the entry count each shard's cache map is made for.
	shardHint int

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

// Option configures a Resolver.
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

// entriesPerZone is how many cache entries a measurement run leaves per
// zone of the store it asks: 3.9 and 4.2 in the 2016 and 2020 worlds at 10K
// sites (43.3K and 46.6K entries over 11.1K and 11.2K zones).
const entriesPerZone = 4

// expectedEntries sizes the cache from the world the resolver answers for:
// the zone count of an in-process store, or nothing for a remote server.
func expectedEntries(t Transport) int {
	if zd, ok := t.(ZoneDirect); ok && zd.Store != nil {
		return entriesPerZone * zd.Store.ZoneCount()
	}
	return 0
}

// New creates a resolver using transport. Over an in-process store the
// cache shards are made for the entries a run over the store's zones
// leaves, so the cache does not rehash its way up from empty.
func New(transport Transport, opts ...Option) *Resolver {
	r := &Resolver{
		transport: transport,
		now:       time.Now,
	}
	for _, o := range opts {
		o(r)
	}
	if r.shards == nil {
		r.shards = make([]cacheShard, defaultShards)
	}
	r.shardMask = uint64(len(r.shards) - 1)
	r.shardHint = expectedEntries(transport) / len(r.shards)
	for i := range r.shards {
		r.shards[i].entries = make(map[cacheKey]cacheEntry, r.shardHint)
		r.shards[i].flights = make(map[cacheKey]*flight)
	}
	telShards.Set(int64(len(r.shards)))
	return r
}

// Shards returns the cache shard count (always a power of two).
func (r *Resolver) Shards() int { return len(r.shards) }

// Stats is a point-in-time snapshot of the resolver's query counters.
type Stats struct {
	// Queries is the total number of Lookup calls.
	Queries int64
	// Hits is how many of them were served from the cache (including
	// lookups resolved by joining another caller's in-flight exchange).
	Hits int64
	// Deduped is how many lookups joined an exchange already in flight for
	// the same (name, type) instead of issuing their own — the singleflight
	// suppression count. Every deduplicated lookup that succeeds is also a
	// Hit, so Queries - Hits remains the number of transport exchanges.
	Deduped int64
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
	return Stats{Queries: r.queries.Load(), Hits: r.hits.Load(), Deduped: r.deduped.Load()}
}

// queryPool recycles query messages for the miss path. Safe because neither
// transport retains the query: UDPTransport packs a private copy and
// ZoneDirect's Reply copies the question section.
var queryPool = sync.Pool{New: func() any {
	return &dnsmsg.Message{Questions: make([]dnsmsg.Question, 1)}
}}

// Lookup queries (name, qtype), serving from cache when possible. A miss
// for a (name, type) that another goroutine is already fetching joins that
// exchange instead of issuing its own (counted in Stats.Deduped and
// resolver_singleflight_dedup_total).
func (r *Resolver) Lookup(ctx context.Context, name string, qtype dnsmsg.Type) (Result, error) {
	key := cacheKey{dnsmsg.CanonicalName(name), qtype}
	now := r.now()

	r.queries.Add(1)
	telQueries.Inc()
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
	rcode := resp.Header.RCode
	switch rcode {
	case dnsmsg.RCodeSuccess, dnsmsg.RCodeNameError:
	default:
		releaseResponse(resp)
		return Result{RCode: rcode}, fmt.Errorf("%w: %s %s -> %s", ErrServFail, key.name, key.qtype, rcode)
	}
	res := Result{
		RCode:     rcode,
		Answers:   resp.Answers,
		Authority: resp.Authority,
	}
	// Only the record slices are retained; the message wrapper goes back to
	// the transport pool.
	releaseResponse(resp)
	r.store(key, res, now)
	return res, nil
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
		sh.entries = make(map[cacheKey]cacheEntry, r.shardHint)
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
