package dnszone

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"depscope/internal/dnsmsg"
)

// oracleZone is the map-of-maps zone the flat node layout replaced: one
// type → records map per owner name. It is kept here only as the reference
// Store.Lookup, AllRecords and WriteTo are pinned to.
type oracleZone struct {
	z     *Zone // origin, SOA and the shared authority section
	nodes map[string]map[dnsmsg.Type][]dnsmsg.Record
}

func (o *oracleZone) add(r dnsmsg.Record) {
	r.Name = dnsmsg.CanonicalName(r.Name)
	if r.Class == 0 {
		r.Class = dnsmsg.ClassIN
	}
	types := o.nodes[r.Name]
	if types == nil {
		types = make(map[dnsmsg.Type][]dnsmsg.Record)
		o.nodes[r.Name] = types
	}
	types[r.Type] = append(types[r.Type], r)
}

func (o *oracleZone) lookupNode(qname string) (map[dnsmsg.Type][]dnsmsg.Record, bool) {
	if types, ok := o.nodes[qname]; ok {
		return types, true
	}
	labels := strings.Split(strings.TrimSuffix(qname, "."), ".")
	for i := 1; i < len(labels); i++ {
		rest := strings.Join(labels[i:], ".") + "."
		if !InBailiwick(rest, o.z.Origin) {
			break
		}
		if types, ok := o.nodes["*."+rest]; ok {
			out := make(map[dnsmsg.Type][]dnsmsg.Record, len(types))
			for t, rs := range types {
				for _, r := range rs {
					r.Name = qname
					out[t] = append(out[t], r)
				}
			}
			return out, true
		}
	}
	return nil, false
}

func sortedTypes(node map[dnsmsg.Type][]dnsmsg.Record) []dnsmsg.Type {
	types := make([]dnsmsg.Type, 0, len(node))
	for t := range node {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	return types
}

func (o *oracleZone) names() []string {
	names := make([]string, 0, len(o.nodes))
	for n := range o.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (o *oracleZone) allRecords() []dnsmsg.Record {
	out := []dnsmsg.Record{o.z.SOARecord()}
	for _, name := range o.names() {
		node := o.nodes[name]
		for _, t := range sortedTypes(node) {
			for _, r := range node[t] {
				if r.Type != dnsmsg.TypeSOA {
					out = append(out, r)
				}
			}
		}
	}
	return out
}

func (o *oracleZone) writeTo(w *bytes.Buffer) {
	fmt.Fprintf(w, "$ORIGIN %s\n$TTL 3600\n", o.z.Origin)
	soa := o.z.SOA()
	fmt.Fprintf(w, "@ IN SOA %s %s %d %d %d %d %d\n",
		soa.MName, soa.RName, soa.Serial, soa.Refresh, soa.Retry, soa.Expire, soa.Minimum)
	names := o.names()
	sort.SliceStable(names, func(i, j int) bool {
		if names[i] == o.z.Origin {
			return names[j] != o.z.Origin
		}
		return names[j] != o.z.Origin && names[i] < names[j]
	})
	for _, name := range names {
		node := o.nodes[name]
		for _, t := range sortedTypes(node) {
			for _, r := range node[t] {
				if r.Type == dnsmsg.TypeSOA {
					continue
				}
				line, err := recordLine(&r)
				if err != nil {
					panic(err)
				}
				fmt.Fprintf(w, "%s\n", line)
			}
		}
	}
}

// oracleStore answers with the same RFC 1034 rules over oracle zones. ANY
// answers are gathered in type order and stably sorted, the deterministic
// order the flat nodes give.
type oracleStore struct{ zones map[string]*oracleZone }

func (s *oracleStore) findZone(qname string) *oracleZone {
	for name := qname; ; {
		if z, ok := s.zones[name]; ok {
			return z
		}
		idx := strings.IndexByte(name, '.')
		if idx < 0 || idx == len(name)-1 {
			return nil
		}
		name = name[idx+1:]
	}
}

func (s *oracleStore) lookup(qname string, qtype dnsmsg.Type) Result {
	qname = dnsmsg.CanonicalName(qname)
	res := Result{}
	seen := 0
	name := qname
	for {
		z := s.findZone(name)
		if z == nil {
			if len(res.Answers) > 0 {
				res.RCode = dnsmsg.RCodeSuccess
				return res
			}
			return Result{RCode: dnsmsg.RCodeRefused}
		}
		res.Zone = z.z
		node, exists := z.lookupNode(name)
		if !exists {
			if len(res.Answers) > 0 {
				res.RCode = dnsmsg.RCodeSuccess
				res.Authority = z.z.soaAuthority()
				return res
			}
			return Result{RCode: dnsmsg.RCodeNameError, Authority: z.z.soaAuthority(), Zone: z.z}
		}
		if qtype == dnsmsg.TypeANY {
			for _, t := range sortedTypes(node) {
				res.Answers = append(res.Answers, node[t]...)
			}
			sortRecords(res.Answers)
			res.RCode = dnsmsg.RCodeSuccess
			return res
		}
		if rs := node[qtype]; len(rs) > 0 {
			res.Answers = append(res.Answers, rs...)
			res.RCode = dnsmsg.RCodeSuccess
			return res
		}
		if cn := node[dnsmsg.TypeCNAME]; len(cn) > 0 && qtype != dnsmsg.TypeCNAME {
			res.Answers = append(res.Answers, cn[0])
			seen++
			if seen > maxCNAMEChase {
				res.RCode = dnsmsg.RCodeServerFailure
				return res
			}
			name = dnsmsg.CanonicalName(cn[0].Target)
			continue
		}
		res.RCode = dnsmsg.RCodeSuccess
		res.Authority = z.z.soaAuthority()
		return res
	}
}

// sameResult compares two results by value: empty and nil sections are
// equal, and zones are compared by identity.
func sameResult(a, b Result) bool {
	norm := func(rs []dnsmsg.Record) []dnsmsg.Record {
		if len(rs) == 0 {
			return nil
		}
		return rs
	}
	return a.RCode == b.RCode && a.Zone == b.Zone &&
		reflect.DeepEqual(norm(a.Answers), norm(b.Answers)) &&
		reflect.DeepEqual(norm(a.Authority), norm(b.Authority))
}

func cloneRecords(rs []dnsmsg.Record) []dnsmsg.Record {
	return append([]dnsmsg.Record(nil), rs...)
}

var oracleTypes = []dnsmsg.Type{dnsmsg.TypeA, dnsmsg.TypeNS, dnsmsg.TypeCNAME,
	dnsmsg.TypeTXT, dnsmsg.TypeMX, dnsmsg.TypeAAAA, dnsmsg.TypeSOA}

// randomWorld builds the same random zones into a Store and an oracle:
// nested origins, several types per node, several records per type,
// wildcards and CNAMEs within and across zones (loops included). Between
// adds it takes lookups and keeps their results, returned as probes whose
// answers must not change while later adds grow the nodes they alias.
func randomWorld(rng *rand.Rand) (*Store, *oracleStore, []string, []probe) {
	origins := []string{"a.test.", "b.test.", "sub.a.test.", "c.example."}
	labels := []string{"www", "x", "y", "*", "sub", "deep.x", "*.x", "cdn"}
	s := NewStore()
	o := &oracleStore{zones: make(map[string]*oracleZone)}
	var zones []*Zone
	for _, origin := range origins {
		z := NewZone(origin, soa("ns1."+origin, "ops."+origin))
		s.AddZone(z)
		oz := &oracleZone{z: z, nodes: make(map[string]map[dnsmsg.Type][]dnsmsg.Record)}
		oz.add(z.SOARecord())
		o.zones[z.Origin] = oz
		zones = append(zones, z)
	}
	var names []string
	for _, origin := range origins {
		names = append(names, origin)
		for _, l := range labels {
			names = append(names, l+"."+origin)
		}
	}
	var probes []probe
	for i, n := 0, 40+rng.Intn(80); i < n; i++ {
		zi := rng.Intn(len(zones))
		z, oz := zones[zi], o.zones[zones[zi].Origin]
		owner := z.Origin
		if rng.Intn(4) != 0 {
			owner = labels[rng.Intn(len(labels))] + "." + z.Origin
		}
		r := dnsmsg.Record{Name: owner, Type: oracleTypes[rng.Intn(len(oracleTypes))], TTL: uint32(60 + i)}
		switch r.Type {
		case dnsmsg.TypeA:
			r.Addr = dnsmsg.IPv4(192, 0, 2, byte(i))
		case dnsmsg.TypeAAAA:
			r.Addr[15] = byte(i)
		case dnsmsg.TypeTXT:
			r.Data = &dnsmsg.Rdata{TXT: []string{fmt.Sprintf("t%d", i)}}
		case dnsmsg.TypeMX:
			r.Data = &dnsmsg.Rdata{MX: dnsmsg.MXData{Preference: uint16(i), Exchange: names[rng.Intn(len(names))]}}
		case dnsmsg.TypeSOA:
			r.Data = &dnsmsg.Rdata{SOA: soa(fmt.Sprintf("m%d.%s", i, z.Origin), "ops."+z.Origin)}
		default:
			r.Target = names[rng.Intn(len(names))]
		}
		z.MustAdd(r)
		oz.add(r)
		if rng.Intn(3) == 0 {
			q := probe{names[rng.Intn(len(names))], oracleTypes[rng.Intn(len(oracleTypes))], Result{}}
			q.res = s.Lookup(q.name, q.qtype)
			q.res.Answers = cloneRecords(q.res.Answers)
			// Keep the live result too: its answers may alias a node.
			probes = append(probes, q, probe{q.name, q.qtype, s.Lookup(q.name, q.qtype)})
		}
	}
	names = append(names, "nx.nowhere.", "q.deep.x.a.test.", "z.y.sub.a.test.", "WWW.A.TEST")
	return s, o, names, probes
}

type probe struct {
	name  string
	qtype dnsmsg.Type
	res   Result
}

func TestPropertyFlatNodesMatchOracle(t *testing.T) {
	queryTypes := append([]dnsmsg.Type{dnsmsg.TypeANY}, oracleTypes...)
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, o, names, probes := randomWorld(rng)
		for i := 0; i < len(probes); i += 2 {
			if !sameResult(probes[i].res, probes[i+1].res) {
				t.Fatalf("seed %d: a later Add rewrote the earlier answer to %s %v:\n got %+v\nwant %+v",
					seed, probes[i].name, probes[i].qtype, probes[i+1].res, probes[i].res)
			}
		}
		for _, name := range names {
			for _, qt := range queryTypes {
				got, want := s.Lookup(name, qt), o.lookup(name, qt)
				if !sameResult(got, want) {
					t.Fatalf("seed %d: Lookup(%s, %v)\n got %+v\nwant %+v", seed, name, qt, got, want)
				}
			}
		}
		for _, origin := range s.Origins() {
			z, oz := s.Zone(origin), o.zones[origin]
			if got, want := z.AllRecords(), oz.allRecords(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: AllRecords(%s)\n got %+v\nwant %+v", seed, origin, got, want)
			}
			var got, want bytes.Buffer
			if _, err := z.WriteTo(&got); err != nil {
				t.Fatal(err)
			}
			oz.writeTo(&want)
			if got.String() != want.String() {
				t.Fatalf("seed %d: WriteTo(%s)\n got:\n%s\nwant:\n%s", seed, origin, got.String(), want.String())
			}
		}
	}
}

// TestStoreLookupAllocs guards the store's hot path: an exact hit aliases
// the node's run, and misses share the zone's prebuilt SOA authority, so
// none of them allocates.
func TestStoreLookupAllocs(t *testing.T) {
	s := buildStore(t)
	for _, q := range []struct {
		name  string
		qtype dnsmsg.Type
	}{
		{"example.com.", dnsmsg.TypeNS},       // exact hit
		{"example.com.", dnsmsg.TypeSOA},      // apex SOA hit
		{"nx.example.com.", dnsmsg.TypeA},     // NXDOMAIN
		{"example.com.", dnsmsg.TypeTXT},      // NODATA
		{"a.img.example.com.", dnsmsg.TypeNS}, // wildcard NODATA
		// A wildcard owner longer than the runtime's 32-byte stack
		// conversion buffer is still searched without allocating.
		{"a.deeply.nested.host.below.img.example.com.", dnsmsg.TypeNS},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			s.Lookup(q.name, q.qtype)
		})
		if allocs != 0 {
			t.Errorf("Lookup(%s, %v) allocates %.1f per call, want 0", q.name, q.qtype, allocs)
		}
	}
}
