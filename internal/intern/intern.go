// Package intern deduplicates hot-path strings so each distinct hostname is
// allocated once per process instead of once per record. A measurement over
// the wire decodes the same few thousand names millions of times (every
// NS/SOA/CNAME answer repeats the zone's names); interning turns
// those repeats into map hits and shrinks both steady-state heap and GC scan
// work. A Pool is sharded so concurrent workers do not serialize on one lock,
// and the []byte lookup path relies on the compiler's map[string(b)]
// optimization to stay allocation-free on hits.
package intern

import "sync"

// shardCount must be a power of two so the hash can be masked, not modded.
const shardCount = 64

type shard struct {
	mu sync.RWMutex
	m  map[string]string
}

// Pool is a sharded string intern table. The zero value is not usable; call
// NewPool. All methods are safe for concurrent use.
type Pool struct {
	shards [shardCount]shard
}

// NewPool creates an empty intern pool.
func NewPool() *Pool {
	p := &Pool{}
	for i := range p.shards {
		p.shards[i].m = make(map[string]string)
	}
	return p
}

// fnv1a is FNV-1a over s, inlined so the hot path needs no hash.Hash64
// allocation.
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

// fnv1aBytes mirrors fnv1a for a byte slice without converting it to a
// string first.
func fnv1aBytes(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime64
	}
	return h
}

// Intern returns the canonical copy of s, storing s itself on first sight.
func (p *Pool) Intern(s string) string {
	if s == "" {
		return ""
	}
	sh := &p.shards[fnv1a(s)&(shardCount-1)]
	sh.mu.RLock()
	v, ok := sh.m[s]
	sh.mu.RUnlock()
	if ok {
		return v
	}
	sh.mu.Lock()
	if v, ok = sh.m[s]; !ok {
		sh.m[s] = s
		v = s
	}
	sh.mu.Unlock()
	return v
}

// Bytes returns the canonical string equal to b, copying b into a new string
// only the first time it is seen. The hit path does not allocate: the
// map[string(b)] lookup is recognized by the compiler and reads the map
// without materializing the conversion.
func (p *Pool) Bytes(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	sh := &p.shards[fnv1aBytes(b)&(shardCount-1)]
	sh.mu.RLock()
	v, ok := sh.m[string(b)]
	sh.mu.RUnlock()
	if ok {
		return v
	}
	s := string(b)
	sh.mu.Lock()
	if v, ok = sh.m[s]; !ok {
		sh.m[s] = s
		v = s
	}
	sh.mu.Unlock()
	return v
}

// Len returns the number of interned strings (for tests and diagnostics).
func (p *Pool) Len() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// defaultPool is the process-wide table shared by dnsmsg decode, the
// resolver, and measure, so one run's hostnames converge to single copies.
var defaultPool = NewPool()

// String interns s in the process-wide pool.
func String(s string) string { return defaultPool.Intern(s) }

// Bytes interns b in the process-wide pool without allocating on hits.
func Bytes(b []byte) string { return defaultPool.Bytes(b) }
