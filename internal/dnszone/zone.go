// Package dnszone provides an authoritative DNS data store: zones holding
// resource-record sets, with RFC 1034 lookup semantics (exact match, CNAME
// indirection, wildcard synthesis, NODATA vs NXDOMAIN distinction).
//
// In this reproduction the store plays the role of "the authoritative DNS of
// the Internet": the ecosystem generator emits one zone per registrable
// domain (websites, DNS providers, CDNs, CA infrastructure) and the
// measurement pipeline interrogates the store either over real UDP/TCP via
// internal/dnsserver or in-process via resolver.ZoneDirect.
package dnszone

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"depscope/internal/dnsmsg"
)

// Zone is a single zone of authority rooted at Origin.
//
// A zone's records are one block: a []dnsmsg.Record sorted by owner name
// and then by type, with insertion order kept within each (owner, type)
// run. A node (the records of one owner) and an RRset (one type of one
// node) are runs of the block, found by binary search, so a lookup hit
// aliases the block and allocates nothing. Generated zones hold at most
// ten records, so the block is the whole per-zone structure: there is no
// map, no lock and no per-owner slice.
//
// A zone is built by its creator (NewZone, then Add) and published by
// Store.AddZone, which trims the block to its exact size. Until then the
// zone belongs to the goroutine building it, and Add inserts in place.
// After it, Add copies the block and swaps the copy in atomically, so
// lookups, transfers and further Adds may run concurrently, and an answer
// already handed out never changes.
type Zone struct {
	// Origin is the zone apex, canonical form ("example.com.").
	Origin string

	// soa is the apex SOA's RDATA; the SOA record at the head of the apex
	// node points here.
	soa dnsmsg.Rdata
	// recs points at the current block's header: at head until the first
	// Add after publication swaps in a fresh one, so a zone that is never
	// extended after publication spends no allocation on its header. (One
	// that is keeps its first published block reachable through head.)
	recs      atomic.Pointer[[]dnsmsg.Record]
	head      []dnsmsg.Record
	published atomic.Bool
}

// buildCap is the capacity a new zone's block starts with: enough for most
// generated zones (six records at the median), so building one rarely
// regrows before publication trims it.
const buildCap = 8

// NewZone creates a zone rooted at origin with the given SOA data. The SOA
// record itself is installed at the apex.
func NewZone(origin string, soa dnsmsg.SOAData) *Zone {
	z := &Zone{Origin: dnsmsg.CanonicalName(origin), soa: dnsmsg.Rdata{SOA: soa}}
	z.head = append(make([]dnsmsg.Record, 0, buildCap), dnsmsg.Record{
		Name: z.Origin, Type: dnsmsg.TypeSOA, Class: dnsmsg.ClassIN, TTL: 3600,
		Data: &z.soa,
	})
	z.recs.Store(&z.head)
	return z
}

// SOA returns the zone's start-of-authority data.
func (z *Zone) SOA() dnsmsg.SOAData { return z.soa.SOA }

// block returns the zone's current record block.
func (z *Zone) block() []dnsmsg.Record {
	if p := z.recs.Load(); p != nil {
		return *p
	}
	return nil
}

// Add installs a record in the zone. The record name must be at or below the
// zone origin; out-of-bailiwick records are rejected. Before the zone is
// published, Add must not run concurrently with anything else on the zone.
func (z *Zone) Add(r dnsmsg.Record) error {
	name := dnsmsg.CanonicalName(r.Name)
	if !InBailiwick(name, z.Origin) {
		return fmt.Errorf("dnszone: %s is outside zone %s", name, z.Origin)
	}
	r.Name = name
	if r.Class == 0 {
		r.Class = dnsmsg.ClassIN
	}
	for {
		p := z.recs.Load()
		var old []dnsmsg.Record
		if p != nil {
			old = *p
		}
		// The record goes after every record of its owner and a type at or
		// below its own.
		i, j := nodeOf(old, name)
		for i < j && old[i].Type <= r.Type {
			i++
		}
		if !z.published.Load() {
			z.head = slices.Insert(old, i, r)
			z.recs.Store(&z.head)
			return nil
		}
		recs := make([]dnsmsg.Record, len(old)+1)
		copy(recs, old[:i])
		recs[i] = r
		copy(recs[i+1:], old[i:])
		if z.recs.CompareAndSwap(p, &recs) {
			return nil
		}
	}
}

// publish trims the block to its exact size and switches Add to
// copy-on-write. Store.AddZone calls it before the zone becomes reachable
// through the store.
func (z *Zone) publish() {
	if z.published.Load() {
		return
	}
	if recs := z.block(); cap(recs) != len(recs) {
		z.head = slices.Clone(recs)
	}
	z.recs.Store(&z.head)
	z.published.Store(true)
}

// nodeOf returns the bounds [i, j) of the run of recs owned by name, or an
// empty range at name's insertion point. name is a string or the bytes of
// one; the comparisons convert without allocating.
func nodeOf[N string | []byte](recs []dnsmsg.Record, name N) (i, j int) {
	lo, hi := 0, len(recs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if recs[m].Name < string(name) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	j = lo
	for j < len(recs) && recs[j].Name == string(name) {
		j++
	}
	return lo, j
}

// run returns the records of type t in node, capped so that appending to
// the result can never write into the block.
func run(node []dnsmsg.Record, t dnsmsg.Type) []dnsmsg.Record {
	i := 0
	for i < len(node) && node[i].Type < t {
		i++
	}
	j := i
	for j < len(node) && node[j].Type == t {
		j++
	}
	return node[i:j:j]
}

// answers returns recs as answers for qname: as they are, or, when they come
// from a wildcard node, copied with their owner renamed to qname.
func answers(recs []dnsmsg.Record, wild bool, qname string) []dnsmsg.Record {
	if !wild {
		return recs
	}
	out := make([]dnsmsg.Record, len(recs))
	for i, r := range recs {
		r.Name = qname
		out[i] = r
	}
	return out
}

// MustAdd is Add that panics on error, for generator code building zones
// from trusted input.
func (z *Zone) MustAdd(r dnsmsg.Record) {
	if err := z.Add(r); err != nil {
		panic(err)
	}
}

// SOARecord returns the apex SOA as a record. The record's SOA data is
// shared with the zone; callers must treat it as read-only.
func (z *Zone) SOARecord() dnsmsg.Record { return z.soaAuthority()[0] }

// soaAuthority returns a one-record authority section holding the apex
// SOA. It aliases the block, so NXDOMAIN and NODATA answers allocate
// nothing; only zones not built through NewZone get a fresh record.
func (z *Zone) soaAuthority() []dnsmsg.Record {
	recs := z.block()
	i, j := nodeOf(recs, z.Origin)
	if soa := run(recs[i:j], dnsmsg.TypeSOA); len(soa) > 0 {
		return soa[:1:1]
	}
	return []dnsmsg.Record{{
		Name: z.Origin, Type: dnsmsg.TypeSOA, Class: dnsmsg.ClassIN, TTL: 3600,
		Data: &dnsmsg.Rdata{SOA: z.soa.SOA},
	}}
}

// lookupNode returns the node for qname, or, with wild set, the closest
// wildcard node ("*.<ancestor>") when there is none. Nodes are never empty,
// so an empty result means the name does not exist (NXDOMAIN, not NODATA).
func (z *Zone) lookupNode(qname string) (node []dnsmsg.Record, wild bool) {
	recs := z.block()
	if i, j := nodeOf(recs, qname); i < j {
		return recs[i:j:j], false
	}
	// Walk up the ancestors. Each "*.<rest>" owner is assembled in a stack
	// buffer and searched for as bytes, so a miss costs no garbage.
	var scratch [64]byte
	key := scratch[:0]
	rest := qname
	for {
		idx := strings.IndexByte(rest, '.')
		if idx < 0 || idx == len(rest)-1 {
			break
		}
		rest = rest[idx+1:]
		// "*.<rest>" is in bailiwick exactly when rest is.
		if !InBailiwick(rest, z.Origin) {
			break
		}
		key = append(key[:0], '*', '.')
		key = append(key, rest...)
		if i, j := nodeOf(recs, key); i < j {
			return recs[i:j:j], true
		}
	}
	return nil, false
}

// AllRecords returns every record of the zone in transfer order: the apex
// SOA first, then all other records sorted by owner name and type (the
// payload of an AXFR zone transfer, RFC 5936).
func (z *Zone) AllRecords() []dnsmsg.Record {
	recs := z.block()
	out := make([]dnsmsg.Record, 1, max(len(recs), 1))
	out[0] = z.SOARecord()
	for _, r := range recs {
		if r.Type != dnsmsg.TypeSOA {
			out = append(out, r)
		}
	}
	return out
}

// Names returns all node names in the zone, sorted, mainly for tests and
// zone dumps.
func (z *Zone) Names() []string {
	var names []string
	for _, r := range z.block() {
		if len(names) == 0 || names[len(names)-1] != r.Name {
			names = append(names, r.Name)
		}
	}
	return names
}

// InBailiwick reports whether name is at or below origin (both canonical).
func InBailiwick(name, origin string) bool {
	if origin == "." || name == origin {
		return true
	}
	// Suffix match on ".origin" without materializing the concatenation.
	n := len(name) - len(origin)
	return n > 0 && name[n-1] == '.' && name[n:] == origin
}

// Result is the outcome of an authoritative lookup.
type Result struct {
	RCode     dnsmsg.RCode
	Answers   []dnsmsg.Record
	Authority []dnsmsg.Record
	// Zone is the zone of authority that produced the result; nil when no
	// zone matched (RCode Refused).
	Zone *Zone
}

// Store is a collection of zones keyed by origin, with closest-enclosing-
// zone dispatch: the store acts as the single authoritative source for the
// whole simulated Internet.
type Store struct {
	mu    sync.RWMutex
	zones map[string]*Zone
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{zones: make(map[string]*Zone)}
}

// AddZone publishes a zone, installing or replacing the one with its
// origin. From here on Add copies the zone's block rather than inserting in
// place, so the zone may be read and extended concurrently.
func (s *Store) AddZone(z *Zone) {
	z.publish()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.zones[z.Origin] = z
}

// Zone returns the zone with exactly the given origin, or nil.
func (s *Store) Zone(origin string) *Zone {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.zones[dnsmsg.CanonicalName(origin)]
}

// FindZone returns the closest enclosing zone of authority for qname, or nil.
func (s *Store) FindZone(qname string) *Zone {
	qname = dnsmsg.CanonicalName(qname)
	s.mu.RLock()
	defer s.mu.RUnlock()
	for name := qname; ; {
		if z, ok := s.zones[name]; ok {
			return z
		}
		idx := strings.IndexByte(name, '.')
		if idx < 0 || idx == len(name)-1 {
			if z, ok := s.zones["."]; ok {
				return z
			}
			return nil
		}
		name = name[idx+1:]
	}
}

// ZoneCount returns the number of zones in the store.
func (s *Store) ZoneCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.zones)
}

// Origins returns every zone origin in the store, sorted — the stable
// enumeration content fingerprints are built over.
func (s *Store) Origins() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.zones))
	for origin := range s.zones {
		out = append(out, origin)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// maxCNAMEChase bounds in-store CNAME chains to defend against loops.
const maxCNAMEChase = 16

// Lookup answers (qname, qtype) with RFC 1034 semantics:
//
//   - If no zone encloses qname: REFUSED.
//   - If the node doesn't exist: NXDOMAIN with the zone SOA in authority.
//   - If the node exists without the type: NODATA (NOERROR, SOA authority).
//   - CNAME at the node (and qtype != CNAME/ANY): the CNAME is returned and
//     chased across zones within the store as a real recursive resolver
//     would, appending any in-store answers.
func (s *Store) Lookup(qname string, qtype dnsmsg.Type) Result {
	qname = dnsmsg.CanonicalName(qname)
	res := Result{}
	seen := 0
	name := qname
	for {
		z := s.FindZone(name)
		if z == nil {
			if len(res.Answers) > 0 {
				// CNAME chased out of all authority: return what we have.
				res.RCode = dnsmsg.RCodeSuccess
				return res
			}
			return Result{RCode: dnsmsg.RCodeRefused}
		}
		res.Zone = z
		node, wild := z.lookupNode(name)
		if len(node) == 0 {
			if len(res.Answers) > 0 {
				res.RCode = dnsmsg.RCodeSuccess
				res.Authority = z.soaAuthority()
				return res
			}
			return Result{
				RCode:     dnsmsg.RCodeNameError,
				Authority: z.soaAuthority(),
				Zone:      z,
			}
		}
		if qtype == dnsmsg.TypeANY {
			res.Answers = append(res.Answers, answers(node, wild, name)...)
			sortRecords(res.Answers)
			res.RCode = dnsmsg.RCodeSuccess
			return res
		}
		if rs := answers(run(node, qtype), wild, name); len(rs) > 0 {
			if res.Answers == nil {
				// Plain exact hit (no CNAME prefix): alias the node's run
				// rather than copying it. Results are read-only by
				// convention and this is the hottest path in the store.
				res.Answers = rs
			} else {
				res.Answers = append(res.Answers, rs...)
			}
			res.RCode = dnsmsg.RCodeSuccess
			return res
		}
		if cn := answers(run(node, dnsmsg.TypeCNAME), wild, name); len(cn) > 0 && qtype != dnsmsg.TypeCNAME {
			res.Answers = append(res.Answers, cn[0])
			seen++
			if seen > maxCNAMEChase {
				res.RCode = dnsmsg.RCodeServerFailure
				return res
			}
			name = dnsmsg.CanonicalName(cn[0].Target)
			continue
		}
		// NODATA.
		res.RCode = dnsmsg.RCodeSuccess
		res.Authority = z.soaAuthority()
		return res
	}
}

// HandleQuery produces a complete response message for the first question of
// query, suitable for a server to send back.
func (s *Store) HandleQuery(query *dnsmsg.Message) *dnsmsg.Message {
	resp := &dnsmsg.Message{}
	s.AnswerInto(query, resp)
	return resp
}

// AnswerInto fills resp with the response to query, overwriting every field,
// so callers can recycle response messages across exchanges. Unlike
// query.Reply() the question section is aliased, not copied: the response
// must not outlive the query it echoes — dnsserver packs it to the wire
// before reading the next datagram, and resolver.ZoneDirect callers retain
// only the answer/authority sections — so the alias is safe and saves a
// slice copy on every exchange.
func (s *Store) AnswerInto(query, resp *dnsmsg.Message) {
	resp.Header = dnsmsg.Header{
		ID:               query.Header.ID,
		Response:         true,
		Authoritative:    true,
		OpCode:           query.Header.OpCode,
		RecursionDesired: query.Header.RecursionDesired,
	}
	resp.Questions = query.Questions
	resp.Answers, resp.Authority, resp.Additional = nil, nil, nil
	if query.Header.OpCode != dnsmsg.OpCodeQuery || len(query.Questions) != 1 {
		resp.Header.RCode = dnsmsg.RCodeNotImplemented
		return
	}
	q := query.Questions[0]
	if q.Class != dnsmsg.ClassIN && q.Class != dnsmsg.ClassANY {
		resp.Header.RCode = dnsmsg.RCodeRefused
		return
	}
	r := s.Lookup(q.Name, q.Type)
	resp.Header.RCode = r.RCode
	resp.Answers = r.Answers
	resp.Authority = r.Authority
}

func sortRecords(rs []dnsmsg.Record) {
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].Name != rs[j].Name {
			return rs[i].Name < rs[j].Name
		}
		if rs[i].Type != rs[j].Type {
			return rs[i].Type < rs[j].Type
		}
		return rs[i].Target < rs[j].Target
	})
}
