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

	"depscope/internal/dnsmsg"
)

// Zone is a single zone of authority rooted at Origin.
type Zone struct {
	// Origin is the zone apex, canonical form ("example.com.").
	Origin string
	// SOA is the zone's start-of-authority record data.
	SOA dnsmsg.SOAData

	mu sync.RWMutex
	// nodes maps an owner name to its records, grouped into runs by type in
	// ascending type order, with insertion order kept within each run.
	nodes map[string][]dnsmsg.Record

	// soaRec and soaAuth are the prebuilt apex SOA record and a one-record
	// authority section wrapping it, shared by every NXDOMAIN/NODATA result
	// this zone produces. Lookup results are read-only by convention, so the
	// sharing is invisible to callers and saves two allocations per miss.
	soaRec  dnsmsg.Record
	soaAuth []dnsmsg.Record
}

// NewZone creates a zone rooted at origin with the given SOA data. The SOA
// record itself is installed at the apex.
func NewZone(origin string, soa dnsmsg.SOAData) *Zone {
	z := &Zone{
		Origin: dnsmsg.CanonicalName(origin),
		SOA:    soa,
		nodes:  make(map[string][]dnsmsg.Record),
	}
	z.soaRec = dnsmsg.Record{
		Name: z.Origin, Type: dnsmsg.TypeSOA, Class: dnsmsg.ClassIN, TTL: 3600,
		SOA: &z.SOA,
	}
	z.soaAuth = []dnsmsg.Record{z.soaRec}
	z.Add(z.soaRec)
	return z
}

// Add installs a record in the zone. The record name must be at or below the
// zone origin; out-of-bailiwick records are rejected.
func (z *Zone) Add(r dnsmsg.Record) error {
	name := dnsmsg.CanonicalName(r.Name)
	if !InBailiwick(name, z.Origin) {
		return fmt.Errorf("dnszone: %s is outside zone %s", name, z.Origin)
	}
	r.Name = name
	if r.Class == 0 {
		r.Class = dnsmsg.ClassIN
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	node := z.nodes[name]
	// The record goes after every record of a type at or below its own.
	i := len(node)
	for i > 0 && node[i-1].Type > r.Type {
		i--
	}
	if i == len(node) {
		z.nodes[name] = append(node, r)
	} else {
		// Concat copies into a new, exactly sized slice rather than shifting
		// in place: earlier lookups may still alias runs of the old one.
		z.nodes[name] = slices.Concat(node[:i], []dnsmsg.Record{r}, node[i:])
	}
	return nil
}

// run returns the records of type t in node, capped so that appending to
// the result can never write into the node.
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

// SOARecord returns the apex SOA as a record. The record's SOA pointer is
// shared with the zone; callers must treat it as read-only.
func (z *Zone) SOARecord() dnsmsg.Record {
	if z.soaRec.SOA != nil {
		return z.soaRec
	}
	// Zero-value zones (not built through NewZone) fall back to a fresh copy.
	soa := z.SOA
	return dnsmsg.Record{
		Name: z.Origin, Type: dnsmsg.TypeSOA, Class: dnsmsg.ClassIN, TTL: 3600,
		SOA: &soa,
	}
}

// soaAuthority returns the shared one-record authority section holding the
// apex SOA, allocating only for zones not built through NewZone.
func (z *Zone) soaAuthority() []dnsmsg.Record {
	if z.soaAuth != nil {
		return z.soaAuth
	}
	return []dnsmsg.Record{z.SOARecord()}
}

// lookupNode returns the node for qname, or, with wild set, the closest
// wildcard node ("*.<ancestor>") when there is none. Nodes are never empty,
// so an empty result means the name does not exist (NXDOMAIN, not NODATA).
func (z *Zone) lookupNode(qname string) (node []dnsmsg.Record, wild bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	if node, ok := z.nodes[qname]; ok {
		return node, false
	}
	// Walk up the ancestors. Each "*.<rest>" key is assembled in a stack
	// buffer and probed with the compiler's alloc-free map[string(b)] index,
	// so a miss costs no garbage.
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
		if node, ok := z.nodes[string(key)]; ok {
			return node, true
		}
	}
	return nil, false
}

// AllRecords returns every record of the zone in transfer order: the apex
// SOA first, then all other records sorted by owner name and type (the
// payload of an AXFR zone transfer, RFC 5936).
func (z *Zone) AllRecords() []dnsmsg.Record {
	out := []dnsmsg.Record{z.SOARecord()}
	for _, name := range z.Names() {
		node, _ := z.lookupNode(name)
		for _, r := range node {
			if r.Type != dnsmsg.TypeSOA {
				out = append(out, r)
			}
		}
	}
	return out
}

// Names returns all node names in the zone, sorted, mainly for tests and
// zone dumps.
func (z *Zone) Names() []string {
	z.mu.RLock()
	defer z.mu.RUnlock()
	names := make([]string, 0, len(z.nodes))
	for n := range z.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
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

// AddZone installs (or replaces) a zone.
func (s *Store) AddZone(z *Zone) {
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
