package dnszone

import (
	"fmt"
	"testing"

	"depscope/internal/dnsmsg"
)

func soa(mname, rname string) dnsmsg.SOAData {
	return dnsmsg.SOAData{MName: mname, RName: rname, Serial: 1, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300}
}

func buildStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()

	site := NewZone("example.com.", soa("ns1.dyn-dns.net.", "hostmaster.example.com."))
	site.MustAdd(dnsmsg.Record{Name: "example.com.", Type: dnsmsg.TypeNS, TTL: 3600, Target: "ns1.dyn-dns.net."})
	site.MustAdd(dnsmsg.Record{Name: "example.com.", Type: dnsmsg.TypeNS, TTL: 3600, Target: "ns2.dyn-dns.net."})
	site.MustAdd(dnsmsg.Record{Name: "example.com.", Type: dnsmsg.TypeA, TTL: 300, Addr: dnsmsg.IPv4(192, 0, 2, 1)})
	site.MustAdd(dnsmsg.Record{Name: "www.example.com.", Type: dnsmsg.TypeCNAME, TTL: 300, Target: "edge-1234.fastcdn.net."})
	site.MustAdd(dnsmsg.Record{Name: "*.img.example.com.", Type: dnsmsg.TypeA, TTL: 300, Addr: dnsmsg.IPv4(192, 0, 2, 9)})
	s.AddZone(site)

	cdn := NewZone("fastcdn.net.", soa("ns1.fastcdn.net.", "ops.fastcdn.net."))
	cdn.MustAdd(dnsmsg.Record{Name: "edge-1234.fastcdn.net.", Type: dnsmsg.TypeA, TTL: 60, Addr: dnsmsg.IPv4(198, 51, 100, 7)})
	s.AddZone(cdn)

	dns := NewZone("dyn-dns.net.", soa("ns1.dyn-dns.net.", "ops.dyn-dns.net."))
	dns.MustAdd(dnsmsg.Record{Name: "ns1.dyn-dns.net.", Type: dnsmsg.TypeA, TTL: 60, Addr: dnsmsg.IPv4(203, 0, 113, 1)})
	s.AddZone(dns)
	return s
}

func TestLookupExactMatch(t *testing.T) {
	s := buildStore(t)
	r := s.Lookup("example.com.", dnsmsg.TypeNS)
	if r.RCode != dnsmsg.RCodeSuccess {
		t.Fatalf("rcode = %v", r.RCode)
	}
	if len(r.Answers) != 2 {
		t.Fatalf("got %d NS answers, want 2", len(r.Answers))
	}
	for _, a := range r.Answers {
		if a.Type != dnsmsg.TypeNS {
			t.Errorf("answer type %v", a.Type)
		}
	}
}

func TestLookupCaseInsensitive(t *testing.T) {
	s := buildStore(t)
	r := s.Lookup("EXAMPLE.COM", dnsmsg.TypeA)
	if r.RCode != dnsmsg.RCodeSuccess || len(r.Answers) != 1 {
		t.Fatalf("case-insensitive lookup failed: %+v", r)
	}
}

func TestLookupCNAMEChase(t *testing.T) {
	s := buildStore(t)
	r := s.Lookup("www.example.com.", dnsmsg.TypeA)
	if r.RCode != dnsmsg.RCodeSuccess {
		t.Fatalf("rcode = %v", r.RCode)
	}
	if len(r.Answers) != 2 {
		t.Fatalf("got %d answers, want CNAME+A: %+v", len(r.Answers), r.Answers)
	}
	if r.Answers[0].Type != dnsmsg.TypeCNAME || r.Answers[0].Target != "edge-1234.fastcdn.net." {
		t.Errorf("first answer: %+v", r.Answers[0])
	}
	if r.Answers[1].Type != dnsmsg.TypeA || r.Answers[1].Name != "edge-1234.fastcdn.net." {
		t.Errorf("second answer: %+v", r.Answers[1])
	}
}

func TestLookupCNAMEQueryNotChased(t *testing.T) {
	s := buildStore(t)
	r := s.Lookup("www.example.com.", dnsmsg.TypeCNAME)
	if len(r.Answers) != 1 || r.Answers[0].Type != dnsmsg.TypeCNAME {
		t.Fatalf("CNAME query: %+v", r.Answers)
	}
}

func TestLookupNXDOMAIN(t *testing.T) {
	s := buildStore(t)
	r := s.Lookup("nope.example.com.", dnsmsg.TypeA)
	if r.RCode != dnsmsg.RCodeNameError {
		t.Fatalf("rcode = %v, want NXDOMAIN", r.RCode)
	}
	if len(r.Authority) != 1 || r.Authority[0].Type != dnsmsg.TypeSOA {
		t.Fatalf("authority should carry SOA: %+v", r.Authority)
	}
	if r.Authority[0].Data.SOA.MName != "ns1.dyn-dns.net." {
		t.Errorf("SOA MName = %q", r.Authority[0].Data.SOA.MName)
	}
}

func TestLookupNODATA(t *testing.T) {
	s := buildStore(t)
	r := s.Lookup("example.com.", dnsmsg.TypeTXT)
	if r.RCode != dnsmsg.RCodeSuccess || len(r.Answers) != 0 {
		t.Fatalf("NODATA: rcode=%v answers=%d", r.RCode, len(r.Answers))
	}
	if len(r.Authority) != 1 || r.Authority[0].Type != dnsmsg.TypeSOA {
		t.Fatalf("NODATA should carry SOA authority: %+v", r.Authority)
	}
}

func TestLookupRefusedOutsideAuthority(t *testing.T) {
	s := buildStore(t)
	r := s.Lookup("elsewhere.org.", dnsmsg.TypeA)
	if r.RCode != dnsmsg.RCodeRefused {
		t.Fatalf("rcode = %v, want REFUSED", r.RCode)
	}
}

func TestWildcardSynthesis(t *testing.T) {
	s := buildStore(t)
	r := s.Lookup("a.img.example.com.", dnsmsg.TypeA)
	if r.RCode != dnsmsg.RCodeSuccess || len(r.Answers) != 1 {
		t.Fatalf("wildcard lookup: %+v", r)
	}
	if r.Answers[0].Name != "a.img.example.com." {
		t.Errorf("wildcard answer name = %q, want qname", r.Answers[0].Name)
	}
	// The wildcard node itself must not shadow NXDOMAIN for other subtrees.
	if r := s.Lookup("b.video.example.com.", dnsmsg.TypeA); r.RCode != dnsmsg.RCodeNameError {
		t.Errorf("non-wildcard subtree rcode = %v", r.RCode)
	}
}

func TestLookupANY(t *testing.T) {
	s := buildStore(t)
	r := s.Lookup("example.com.", dnsmsg.TypeANY)
	if r.RCode != dnsmsg.RCodeSuccess {
		t.Fatalf("rcode = %v", r.RCode)
	}
	var haveA, haveNS, haveSOA bool
	for _, a := range r.Answers {
		switch a.Type {
		case dnsmsg.TypeA:
			haveA = true
		case dnsmsg.TypeNS:
			haveNS = true
		case dnsmsg.TypeSOA:
			haveSOA = true
		}
	}
	if !haveA || !haveNS || !haveSOA {
		t.Errorf("ANY missing types: A=%v NS=%v SOA=%v", haveA, haveNS, haveSOA)
	}
}

func TestCNAMELoopTerminates(t *testing.T) {
	s := NewStore()
	z := NewZone("loop.test.", soa("ns.loop.test.", "ops.loop.test."))
	z.MustAdd(dnsmsg.Record{Name: "a.loop.test.", Type: dnsmsg.TypeCNAME, TTL: 1, Target: "b.loop.test."})
	z.MustAdd(dnsmsg.Record{Name: "b.loop.test.", Type: dnsmsg.TypeCNAME, TTL: 1, Target: "a.loop.test."})
	s.AddZone(z)
	r := s.Lookup("a.loop.test.", dnsmsg.TypeA)
	if r.RCode != dnsmsg.RCodeServerFailure {
		t.Fatalf("loop rcode = %v, want SERVFAIL", r.RCode)
	}
}

func TestCNAMEChaseOutOfAuthority(t *testing.T) {
	s := buildStore(t)
	z := s.Zone("example.com.")
	z.MustAdd(dnsmsg.Record{Name: "ext.example.com.", Type: dnsmsg.TypeCNAME, TTL: 1, Target: "cdn.elsewhere.org."})
	r := s.Lookup("ext.example.com.", dnsmsg.TypeA)
	if r.RCode != dnsmsg.RCodeSuccess || len(r.Answers) != 1 || r.Answers[0].Type != dnsmsg.TypeCNAME {
		t.Fatalf("out-of-authority chase: %+v", r)
	}
}

func TestAddRejectsOutOfBailiwick(t *testing.T) {
	z := NewZone("example.com.", soa("ns.example.com.", "ops.example.com."))
	err := z.Add(dnsmsg.Record{Name: "other.org.", Type: dnsmsg.TypeA, Addr: dnsmsg.IPv4(1, 2, 3, 4)})
	if err == nil {
		t.Fatal("Add accepted out-of-bailiwick record")
	}
	// Suffix match must be on label boundaries.
	err = z.Add(dnsmsg.Record{Name: "notexample.com.", Type: dnsmsg.TypeA, Addr: dnsmsg.IPv4(1, 2, 3, 4)})
	if err == nil {
		t.Fatal("Add accepted notexample.com into example.com zone")
	}
}

func TestFindZoneClosestEnclosing(t *testing.T) {
	s := NewStore()
	s.AddZone(NewZone("com.", soa("a.gtld.net.", "nstld.com.")))
	s.AddZone(NewZone("example.com.", soa("ns.example.com.", "ops.example.com.")))
	if z := s.FindZone("deep.www.example.com."); z == nil || z.Origin != "example.com." {
		t.Errorf("FindZone deep: %+v", z)
	}
	if z := s.FindZone("other.com."); z == nil || z.Origin != "com." {
		t.Errorf("FindZone sibling: %+v", z)
	}
	if z := s.FindZone("other.net."); z != nil {
		t.Errorf("FindZone unrelated should be nil, got %s", z.Origin)
	}
	s.AddZone(NewZone(".", soa("a.root.net.", "nstld.root.")))
	if z := s.FindZone("other.net."); z == nil || z.Origin != "." {
		t.Errorf("root zone fallback: %+v", z)
	}
}

func TestHandleQuery(t *testing.T) {
	s := buildStore(t)
	q := dnsmsg.NewQuery(5, "example.com.", dnsmsg.TypeSOA)
	resp := s.HandleQuery(q)
	if !resp.Header.Authoritative || !resp.Header.Response || resp.Header.ID != 5 {
		t.Fatalf("header: %+v", resp.Header)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Type != dnsmsg.TypeSOA {
		t.Fatalf("answers: %+v", resp.Answers)
	}

	multi := &dnsmsg.Message{Header: dnsmsg.Header{ID: 6}, Questions: []dnsmsg.Question{
		{Name: "a.com.", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN},
		{Name: "b.com.", Type: dnsmsg.TypeA, Class: dnsmsg.ClassIN},
	}}
	if resp := s.HandleQuery(multi); resp.Header.RCode != dnsmsg.RCodeNotImplemented {
		t.Errorf("multi-question rcode = %v", resp.Header.RCode)
	}

	chaos := &dnsmsg.Message{Header: dnsmsg.Header{ID: 7}, Questions: []dnsmsg.Question{
		{Name: "version.bind.", Type: dnsmsg.TypeTXT, Class: dnsmsg.Class(3)},
	}}
	if resp := s.HandleQuery(chaos); resp.Header.RCode != dnsmsg.RCodeRefused {
		t.Errorf("chaos-class rcode = %v", resp.Header.RCode)
	}
}

func TestZoneNamesSorted(t *testing.T) {
	z := NewZone("x.test.", soa("ns.x.test.", "ops.x.test."))
	z.MustAdd(dnsmsg.Record{Name: "b.x.test.", Type: dnsmsg.TypeA, Addr: dnsmsg.IPv4(1, 1, 1, 1)})
	z.MustAdd(dnsmsg.Record{Name: "a.x.test.", Type: dnsmsg.TypeA, Addr: dnsmsg.IPv4(1, 1, 1, 2)})
	names := zoneNames(z)
	if len(names) != 3 { // apex + two nodes
		t.Fatalf("names: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatalf("names unsorted: %v", names)
		}
	}
}

func TestConcurrentLookupAndAdd(t *testing.T) {
	s := buildStore(t)
	z := s.Zone("example.com.")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			z.MustAdd(dnsmsg.Record{
				Name: fmt.Sprintf("h%d.example.com.", i),
				Type: dnsmsg.TypeA, TTL: 1, Addr: dnsmsg.IPv4(10, 0, byte(i>>8), byte(i)),
			})
		}
	}()
	for i := 0; i < 500; i++ {
		s.Lookup("example.com.", dnsmsg.TypeNS)
		s.Lookup("www.example.com.", dnsmsg.TypeA)
	}
	<-done
}

func BenchmarkStoreLookup(b *testing.B) {
	s := NewStore()
	for i := 0; i < 1000; i++ {
		origin := fmt.Sprintf("site%d.com.", i)
		z := NewZone(origin, soa("ns."+origin, "ops."+origin))
		z.MustAdd(dnsmsg.Record{Name: origin, Type: dnsmsg.TypeNS, TTL: 1, Target: "ns." + origin})
		s.AddZone(z)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Lookup(fmt.Sprintf("site%d.com.", i%1000), dnsmsg.TypeNS)
	}
}

// TestZeroZone: a zone not built through NewZone still answers with an SOA
// and transfers, publishes and grows like any other.
func TestZeroZone(t *testing.T) {
	z := &Zone{Origin: "zero.test."}
	if got := z.AllRecords(); len(got) != 1 || got[0].Type != dnsmsg.TypeSOA {
		t.Fatalf("AllRecords of a zero zone = %+v", got)
	}
	s := NewStore()
	s.AddZone(z)
	z.MustAdd(dnsmsg.Record{Name: "a.zero.test.", Type: dnsmsg.TypeA, Addr: dnsmsg.IPv4(192, 0, 2, 1)})
	if r := s.Lookup("a.zero.test.", dnsmsg.TypeA); r.RCode != dnsmsg.RCodeSuccess || len(r.Answers) != 1 {
		t.Fatalf("lookup after Add: %+v", r)
	}
	if r := s.Lookup("b.zero.test.", dnsmsg.TypeA); r.RCode != dnsmsg.RCodeNameError || len(r.Authority) != 1 {
		t.Fatalf("NXDOMAIN: %+v", r)
	}
}

// zoneNames returns all node names in z, sorted: the distinct owners of its
// record block, which the zone keeps sorted by owner.
func zoneNames(z *Zone) []string {
	var names []string
	for _, r := range z.block() {
		if len(names) == 0 || names[len(names)-1] != r.Name {
			names = append(names, r.Name)
		}
	}
	return names
}
