package dnszone

import (
	"bytes"
	"strings"
	"testing"

	"depscope/internal/dnsmsg"
)

const sampleZone = `
$ORIGIN example.com.
$TTL 300
@ IN SOA ns1.dns-provider.net. hostmaster.example.com. 2020010101 7200 900 1209600 300
@ 86400 IN NS ns1.dns-provider.net.
@ 86400 IN NS ns2.dns-provider.net.
@ IN A 192.0.2.1
www IN CNAME edge-77.fastcdn.net. ; content rides the CDN
static 60 CNAME edge-78.fastcdn.net.
mail IN MX 10 mx1.example.com.
mx1 IN A 192.0.2.25
@ IN TXT "v=spf1 -all" "second string"
ipv6 IN AAAA 2001:db8::1
*.img IN A 192.0.2.9
`

func TestParseZone(t *testing.T) {
	z, err := ParseZone(strings.NewReader(sampleZone))
	if err != nil {
		t.Fatal(err)
	}
	if z.Origin != "example.com." {
		t.Fatalf("origin = %q", z.Origin)
	}
	if z.SOA().MName != "ns1.dns-provider.net." || z.SOA().Serial != 2020010101 {
		t.Fatalf("SOA = %+v", z.SOA())
	}

	s := NewStore()
	s.AddZone(z)

	r := s.Lookup("example.com.", dnsmsg.TypeNS)
	if len(r.Answers) != 2 || r.Answers[0].TTL != 86400 {
		t.Fatalf("NS answers: %+v", r.Answers)
	}
	r = s.Lookup("www.example.com.", dnsmsg.TypeCNAME)
	if len(r.Answers) != 1 || r.Answers[0].Target != "edge-77.fastcdn.net." {
		t.Fatalf("CNAME: %+v", r.Answers)
	}
	r = s.Lookup("static.example.com.", dnsmsg.TypeCNAME)
	if len(r.Answers) != 1 || r.Answers[0].TTL != 60 {
		t.Fatalf("static TTL: %+v", r.Answers)
	}
	r = s.Lookup("mail.example.com.", dnsmsg.TypeMX)
	if len(r.Answers) != 1 || r.Answers[0].Data.MX.Exchange != "mx1.example.com." {
		t.Fatalf("MX: %+v", r.Answers)
	}
	r = s.Lookup("example.com.", dnsmsg.TypeTXT)
	if len(r.Answers) != 1 || len(r.Answers[0].Data.TXT) != 2 || r.Answers[0].Data.TXT[0] != "v=spf1 -all" {
		t.Fatalf("TXT: %+v", r.Answers)
	}
	r = s.Lookup("ipv6.example.com.", dnsmsg.TypeAAAA)
	want := append([]byte{0x20, 0x01, 0x0d, 0xb8}, make([]byte, 10)...)
	want = append(want, 0, 1)
	if len(r.Answers) != 1 || !bytes.Equal(r.Answers[0].IP(), want) {
		t.Fatalf("AAAA: %+v", r.Answers)
	}
	r = s.Lookup("a.img.example.com.", dnsmsg.TypeA)
	if len(r.Answers) != 1 {
		t.Fatalf("wildcard: %+v", r.Answers)
	}
}

func TestParseZoneOriginFromSOA(t *testing.T) {
	z, err := ParseZone(strings.NewReader(
		"example.org. IN SOA ns1.example.org. admin.example.org. 1 2 3 4 5\n" +
			"example.org. IN NS ns1.example.org.\n"))
	if err != nil {
		t.Fatal(err)
	}
	if z.Origin != "example.org." {
		t.Fatalf("origin = %q", z.Origin)
	}
}

func TestParseZoneInheritedOwner(t *testing.T) {
	z, err := ParseZone(strings.NewReader(
		"$ORIGIN inh.test.\n" +
			"@ IN SOA ns1.inh.test. admin.inh.test. 1 2 3 4 5\n" +
			"host IN A 192.0.2.1\n" +
			"   IN A 192.0.2.2\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	s.AddZone(z)
	r := s.Lookup("host.inh.test.", dnsmsg.TypeA)
	if len(r.Answers) != 2 {
		t.Fatalf("inherited owner: %+v", r.Answers)
	}
}

func TestParseZoneErrors(t *testing.T) {
	cases := []struct{ name, zone string }{
		{"no SOA", "$ORIGIN x.test.\n@ IN NS ns1.x.test.\n"},
		{"dup SOA", "$ORIGIN x.test.\n@ IN SOA a. b. 1 2 3 4 5\n@ IN SOA a. b. 1 2 3 4 5\n"},
		{"bad A", "$ORIGIN x.test.\n@ IN SOA a. b. 1 2 3 4 5\n@ IN A not-an-ip\n"},
		{"bad type", "$ORIGIN x.test.\n@ IN SOA a. b. 1 2 3 4 5\n@ IN WKS whatever\n"},
		{"bad SOA arity", "$ORIGIN x.test.\n@ IN SOA a. b. 1 2 3\n"},
		{"bad TTL directive", "$TTL many\n"},
		{"inherit before owner", "$ORIGIN x.test.\n   IN A 192.0.2.1\n"},
		{"bad MX", "$ORIGIN x.test.\n@ IN SOA a. b. 1 2 3 4 5\n@ IN MX ten mx.x.test.\n"},
		{"out of zone", "$ORIGIN x.test.\n@ IN SOA a. b. 1 2 3 4 5\nelsewhere.org. IN A 192.0.2.1\n"},
	}
	for _, tc := range cases {
		if _, err := ParseZone(strings.NewReader(tc.zone)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestZoneRoundTrip(t *testing.T) {
	z1, err := ParseZone(strings.NewReader(sampleZone))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := z1.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	z2, err := ParseZone(&buf)
	if err != nil {
		t.Fatalf("re-parse: %v\nzone file was:\n%s", err, buf.String())
	}
	if z1.Origin != z2.Origin || z1.SOA() != z2.SOA() {
		t.Fatalf("origin/SOA round trip: %+v vs %+v", z1.SOA(), z2.SOA())
	}
	n1, n2 := zoneNames(z1), zoneNames(z2)
	if len(n1) != len(n2) {
		t.Fatalf("node count: %d vs %d\n%s", len(n1), len(n2), buf.String())
	}
	s1, s2 := NewStore(), NewStore()
	s1.AddZone(z1)
	s2.AddZone(z2)
	for _, name := range n1 {
		for _, typ := range []dnsmsg.Type{dnsmsg.TypeA, dnsmsg.TypeAAAA, dnsmsg.TypeNS, dnsmsg.TypeCNAME, dnsmsg.TypeMX, dnsmsg.TypeTXT} {
			r1 := s1.Lookup(name, typ)
			r2 := s2.Lookup(name, typ)
			if len(r1.Answers) != len(r2.Answers) {
				t.Fatalf("%s %s: %d vs %d answers", name, typ, len(r1.Answers), len(r2.Answers))
			}
		}
	}
}

func TestIPv6ParseForms(t *testing.T) {
	good := []string{"::1", "2001:db8::1", "2001:db8:0:0:0:0:0:1", "::", "fe80::"}
	for _, s := range good {
		var ip [16]byte
		if err := parseIPv6(s, &ip); err != nil {
			t.Errorf("parseIPv6(%q): %v", s, err)
		}
	}
	bad := []string{"1::2::3", "2001:db8", "g::1", "1:2:3:4:5:6:7:8:9"}
	for _, s := range bad {
		var ip [16]byte
		if err := parseIPv6(s, &ip); err == nil {
			t.Errorf("parseIPv6(%q) accepted", s)
		}
	}
}

func TestStripComment(t *testing.T) {
	tests := []struct{ in, want string }{
		{`@ IN A 1.2.3.4 ; comment`, `@ IN A 1.2.3.4 `},
		{`@ IN TXT "a;b" ; real comment`, `@ IN TXT "a;b" `},
		{`no comment`, `no comment`},
	}
	for _, tt := range tests {
		if got := stripComment(tt.in); got != tt.want {
			t.Errorf("stripComment(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestGeneratedZoneExport(t *testing.T) {
	// A materialized zone from the main store must survive export/import.
	z := NewZone("roundtrip.test.", dnsmsg.SOAData{
		MName: "ns1.provider.net.", RName: "hostmaster.roundtrip.test.",
		Serial: 1, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300,
	})
	z.MustAdd(dnsmsg.Record{Name: "roundtrip.test.", Type: dnsmsg.TypeNS, TTL: 86400, Target: "ns1.provider.net."})
	z.MustAdd(dnsmsg.Record{Name: "www.roundtrip.test.", Type: dnsmsg.TypeCNAME, TTL: 300, Target: "e.cdn.net."})
	var buf bytes.Buffer
	if _, err := z.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseZone(&buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
}
