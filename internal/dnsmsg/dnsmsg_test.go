package dnsmsg

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestHeaderRoundTrip(t *testing.T) {
	tests := []Header{
		{},
		{ID: 0x1234, Response: true, Authoritative: true, RCode: RCodeNameError},
		{ID: 0xFFFF, OpCode: 2, Truncated: true},
		{RecursionDesired: true, RecursionAvailable: true, RCode: RCodeRefused},
	}
	for _, h := range tests {
		m := &Message{Header: h}
		b, err := m.Pack()
		if err != nil {
			t.Fatalf("Pack(%+v): %v", h, err)
		}
		got, err := Unpack(b)
		if err != nil {
			t.Fatalf("Unpack(%+v): %v", h, err)
		}
		if got.Header != h {
			t.Errorf("header round trip: got %+v, want %+v", got.Header, h)
		}
	}
}

func TestQuestionRoundTrip(t *testing.T) {
	m := NewQuery(42, "www.example.com.", TypeNS)
	b, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Questions) != 1 {
		t.Fatalf("got %d questions, want 1", len(got.Questions))
	}
	q := got.Questions[0]
	if q.Name != "www.example.com." || q.Type != TypeNS || q.Class != ClassIN {
		t.Errorf("question round trip: got %+v", q)
	}
	if !got.Header.RecursionDesired {
		t.Error("NewQuery should set RD")
	}
}

func sampleRecords() []Record {
	return []Record{
		{Name: "example.com.", Type: TypeA, Class: ClassIN, TTL: 300, Addr: IPv4(93, 184, 216, 34)},
		{Name: "example.com.", Type: TypeAAAA, Class: ClassIN, TTL: 300, Addr: [16]byte(bytes.Repeat([]byte{0x20, 0x01}, 8))},
		{Name: "example.com.", Type: TypeNS, Class: ClassIN, TTL: 86400, Target: "ns1.dns-example.net."},
		{Name: "www.example.com.", Type: TypeCNAME, Class: ClassIN, TTL: 60, Target: "edge.cdn-example.net."},
		{Name: "example.com.", Type: TypeSOA, Class: ClassIN, TTL: 3600, Data: &Rdata{SOA: SOAData{
			MName: "ns1.dns-example.net.", RName: "hostmaster.example.com.",
			Serial: 2020010101, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300,
		}}},
		{Name: "example.com.", Type: TypeMX, Class: ClassIN, TTL: 3600, Data: &Rdata{MX: MXData{Preference: 10, Exchange: "mail.example.com."}}},
		{Name: "example.com.", Type: TypeTXT, Class: ClassIN, TTL: 60, Data: &Rdata{TXT: []string{"v=spf1 -all", "k=v"}}},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, r := range sampleRecords() {
		m := &Message{
			Header:  Header{ID: 7, Response: true},
			Answers: []Record{r},
		}
		b, err := m.Pack()
		if err != nil {
			t.Fatalf("Pack(%s): %v", r.Type, err)
		}
		got, err := Unpack(b)
		if err != nil {
			t.Fatalf("Unpack(%s): %v", r.Type, err)
		}
		if len(got.Answers) != 1 {
			t.Fatalf("%s: got %d answers, want 1", r.Type, len(got.Answers))
		}
		if !reflect.DeepEqual(got.Answers[0], r) {
			t.Errorf("%s round trip:\n got %+v\nwant %+v", r.Type, got.Answers[0], r)
		}
	}
}

func TestAllSectionsRoundTrip(t *testing.T) {
	rs := sampleRecords()
	m := &Message{
		Header:     Header{ID: 99, Response: true, Authoritative: true},
		Questions:  []Question{{Name: "example.com.", Type: TypeANY, Class: ClassIN}},
		Answers:    rs[:3],
		Authority:  rs[3:5],
		Additional: rs[5:],
	}
	b, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("full message round trip:\n got %+v\nwant %+v", got, m)
	}
}

func TestNameCompressionShrinksMessage(t *testing.T) {
	// Many records sharing a suffix should compress to far less than the
	// uncompressed size.
	m := &Message{Header: Header{Response: true}}
	uncompressed := 12
	for i := 0; i < 20; i++ {
		name := strings.Repeat("x", 10) + ".shared-suffix.example.com."
		m.Answers = append(m.Answers, Record{
			Name: name, Type: TypeNS, Class: ClassIN, TTL: 60,
			Target: "ns1.shared-suffix.example.com.",
		})
		uncompressed += len(name) + 1 + 10 + len("ns1.shared-suffix.example.com.") + 1
	}
	b, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) >= uncompressed {
		t.Errorf("compression ineffective: packed %d bytes, uncompressed floor %d", len(b), uncompressed)
	}
	got, err := Unpack(b)
	if err != nil {
		t.Fatalf("Unpack compressed: %v", err)
	}
	for i, a := range got.Answers {
		if a.Name != m.Answers[i].Name || a.Target != m.Answers[i].Target {
			t.Fatalf("answer %d corrupted by compression: %+v", i, a)
		}
	}
}

func TestCompressionPointerIntoRDATA(t *testing.T) {
	// SOA MName/RName and NS targets may be compressed; verify pointers into
	// names that were first written inside RDATA still decode.
	m := &Message{Header: Header{Response: true}}
	m.Answers = append(m.Answers,
		Record{Name: "a.example.org.", Type: TypeNS, Class: ClassIN, TTL: 1, Target: "ns.provider.net."},
		Record{Name: "ns.provider.net.", Type: TypeA, Class: ClassIN, TTL: 1, Addr: IPv4(1, 2, 3, 4)},
	)
	b, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Answers[1].Name != "ns.provider.net." {
		t.Errorf("got %q, want ns.provider.net.", got.Answers[1].Name)
	}
}

func TestNameValidation(t *testing.T) {
	longLabel := strings.Repeat("a", 64) + ".com."
	if _, err := (&Message{Questions: []Question{{Name: longLabel, Type: TypeA, Class: ClassIN}}}).Pack(); err == nil {
		t.Error("Pack accepted 64-byte label")
	}
	longName := strings.Repeat("abcdefgh.", 32) + "com."
	if _, err := (&Message{Questions: []Question{{Name: longName, Type: TypeA, Class: ClassIN}}}).Pack(); err == nil {
		t.Error("Pack accepted >255-byte name")
	}
	if _, err := (&Message{Questions: []Question{{Name: "a..com.", Type: TypeA, Class: ClassIN}}}).Pack(); err == nil {
		t.Error("Pack accepted empty label")
	}
}

func TestRootNameRoundTrip(t *testing.T) {
	m := &Message{Questions: []Question{{Name: ".", Type: TypeNS, Class: ClassIN}}}
	b, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Questions[0].Name != "." {
		t.Errorf("root name round trip: got %q", got.Questions[0].Name)
	}
}

func TestUnpackRejectsTruncatedInput(t *testing.T) {
	m := NewQuery(1, "example.com.", TypeSOA)
	b, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(b); i++ {
		if _, err := Unpack(b[:i]); err == nil {
			t.Errorf("Unpack accepted truncation to %d bytes", i)
		}
	}
}

// emptyTXTAnswer is a response whose one answer is a TXT record at the root
// with zero-length RDATA.
var emptyTXTAnswer = []byte{
	0, 1, 0x84, 0, 0, 0, 0, 1, 0, 0, 0, 0, // header: ANCOUNT = 1
	0,                // owner: root
	0, byte(TypeTXT), // type
	0, byte(ClassIN), // class
	0, 0, 0, 60, // TTL
	0, 0, // RDLENGTH = 0
}

// TestUnpackRejectsEmptyTXT: TXT RDATA must hold at least one
// character-string, so zero-length RDATA is malformed (it would otherwise
// decode as no strings and re-pack as one empty string).
func TestUnpackRejectsEmptyTXT(t *testing.T) {
	if m, err := Unpack(emptyTXTAnswer); err == nil {
		t.Fatalf("Unpack accepted empty TXT RDATA: %+v", m.Answers)
	}
	// One empty character-string is the smallest well-formed TXT RDATA.
	ok := append(append([]byte(nil), emptyTXTAnswer[:len(emptyTXTAnswer)-1]...), 1, 0)
	m, err := Unpack(ok)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Answers[0].Data.TXT; !reflect.DeepEqual(got, []string{""}) {
		t.Fatalf("TXT = %q, want one empty string", got)
	}
}

func TestUnpackRejectsPointerLoops(t *testing.T) {
	// Header claiming one question whose name is a self-pointer.
	msg := make([]byte, 12, 16)
	msg[5] = 1 // QDCOUNT = 1
	msg = append(msg, 0xC0, 12)
	if _, err := Unpack(msg); err == nil {
		t.Error("Unpack accepted self-referential compression pointer")
	}
	// Forward pointer.
	msg2 := make([]byte, 12, 20)
	msg2[5] = 1
	msg2 = append(msg2, 0xC0, 200)
	if _, err := Unpack(msg2); err == nil {
		t.Error("Unpack accepted forward compression pointer")
	}
}

func TestUnpackFuzzedGarbageDoesNotPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		Unpack(b) // must not panic; errors are fine
	}
}

func TestUnpackMutatedValidMessageDoesNotPanic(t *testing.T) {
	m := &Message{
		Header:    Header{ID: 3, Response: true},
		Questions: []Question{{Name: "www.example.com.", Type: TypeA, Class: ClassIN}},
		Answers:   sampleRecords(),
	}
	valid, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		b := append([]byte(nil), valid...)
		for j := 0; j < 3; j++ {
			b[rng.Intn(len(b))] = byte(rng.Intn(256))
		}
		Unpack(b) // must not panic
	}
}

// randName builds a syntactically valid random domain name from a rand.
func randName(rng *rand.Rand) string {
	labels := 1 + rng.Intn(4)
	parts := make([]string, labels)
	for i := range parts {
		n := 1 + rng.Intn(12)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		parts[i] = string(b)
	}
	return strings.Join(parts, ".") + "."
}

func TestPropertyQueryRoundTrip(t *testing.T) {
	f := func(id uint16, seed int64, qt uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		types := []Type{TypeA, TypeNS, TypeCNAME, TypeSOA, TypeTXT, TypeAAAA}
		m := NewQuery(id, randName(rng), types[int(qt)%len(types)])
		b, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(b)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyResponseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &Message{Header: Header{
			ID:            uint16(rng.Intn(1 << 16)),
			Response:      true,
			Authoritative: rng.Intn(2) == 0,
			RCode:         RCode(rng.Intn(6)),
		}}
		n := rng.Intn(6)
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0:
				var ip [16]byte
				rng.Read(ip[:4])
				m.Answers = append(m.Answers, Record{Name: randName(rng), Type: TypeA, Class: ClassIN, TTL: rng.Uint32(), Addr: ip})
			case 1:
				m.Answers = append(m.Answers, Record{Name: randName(rng), Type: TypeNS, Class: ClassIN, TTL: rng.Uint32(), Target: randName(rng)})
			case 2:
				m.Answers = append(m.Answers, Record{Name: randName(rng), Type: TypeCNAME, Class: ClassIN, TTL: rng.Uint32(), Target: randName(rng)})
			case 3:
				m.Answers = append(m.Answers, Record{Name: randName(rng), Type: TypeSOA, Class: ClassIN, TTL: rng.Uint32(), Data: &Rdata{SOA: SOAData{
					MName: randName(rng), RName: randName(rng),
					Serial: rng.Uint32(), Refresh: rng.Uint32(), Retry: rng.Uint32(),
					Expire: rng.Uint32(), Minimum: rng.Uint32(),
				}}})
			}
		}
		b, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(b)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyRepackStable(t *testing.T) {
	// Pack -> Unpack -> Pack must produce identical bytes (compression is
	// deterministic).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &Message{Header: Header{ID: 1, Response: true}}
		shared := randName(rng)
		for i := 0; i < 5; i++ {
			m.Answers = append(m.Answers, Record{
				Name: "h" + string(rune('a'+i)) + "." + shared, Type: TypeNS,
				Class: ClassIN, TTL: 30, Target: "ns." + shared,
			})
		}
		b1, err := m.Pack()
		if err != nil {
			return false
		}
		m2, err := Unpack(b1)
		if err != nil {
			return false
		}
		b2, err := m2.Pack()
		if err != nil {
			return false
		}
		return bytes.Equal(b1, b2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCanonicalName(t *testing.T) {
	tests := []struct{ in, want string }{
		{"", "."},
		{".", "."},
		{"Example.COM", "example.com."},
		{"example.com.", "example.com."},
		{" a.b ", "a.b."},
	}
	for _, tt := range tests {
		if got := CanonicalName(tt.in); got != tt.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestTypeAndRCodeStrings(t *testing.T) {
	if TypeNS.String() != "NS" || TypeSOA.String() != "SOA" || Type(999).String() != "TYPE999" {
		t.Error("Type.String mismatch")
	}
	if RCodeNameError.String() != "NXDOMAIN" || RCode(15).String() != "RCODE15" {
		t.Error("RCode.String mismatch")
	}
	if ClassIN.String() != "IN" || Class(9).String() != "CLASS9" {
		t.Error("Class.String mismatch")
	}
}

func TestReplyMirrorsQuery(t *testing.T) {
	q := NewQuery(77, "spotify.com.", TypeNS)
	r := q.Reply()
	if !r.Header.Response || r.Header.ID != 77 || !r.Header.RecursionDesired {
		t.Errorf("Reply header wrong: %+v", r.Header)
	}
	if len(r.Questions) != 1 || r.Questions[0] != q.Questions[0] {
		t.Errorf("Reply question wrong: %+v", r.Questions)
	}
}

func TestTXTLongStringSplits(t *testing.T) {
	long := strings.Repeat("t", 600)
	m := &Message{Answers: []Record{{Name: "a.com.", Type: TypeTXT, Class: ClassIN, TTL: 1, Data: &Rdata{TXT: []string{long}}}}}
	b, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(got.Answers[0].Data.TXT, "")
	if joined != long {
		t.Errorf("long TXT round trip lost data: %d bytes back", len(joined))
	}
}

func BenchmarkPackTypicalResponse(b *testing.B) {
	m := &Message{
		Header:    Header{ID: 1, Response: true, Authoritative: true},
		Questions: []Question{{Name: "www.example.com.", Type: TypeA, Class: ClassIN}},
		Answers:   sampleRecords(),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpackTypicalResponse(b *testing.B) {
	m := &Message{
		Header:    Header{ID: 1, Response: true, Authoritative: true},
		Questions: []Question{{Name: "www.example.com.", Type: TypeA, Class: ClassIN}},
		Answers:   sampleRecords(),
	}
	buf, err := m.Pack()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unpack(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEDNS0RoundTrip(t *testing.T) {
	m := NewQuery(5, "big.example.", TypeTXT)
	m.SetEDNS0(4096)
	if size, ok := m.EDNS0(); !ok || size != 4096 {
		t.Fatalf("EDNS0() = %d, %v", size, ok)
	}
	b, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	if size, ok := got.EDNS0(); !ok || size != 4096 {
		t.Fatalf("EDNS0 after round trip = %d, %v", size, ok)
	}
	// Replacing an existing OPT keeps exactly one.
	got.SetEDNS0(1232)
	opts := 0
	for _, r := range got.Additional {
		if r.Type == TypeOPT {
			opts++
		}
	}
	if opts != 1 {
		t.Fatalf("OPT count after replace = %d", opts)
	}
	if size, _ := got.EDNS0(); size != 1232 {
		t.Fatalf("replaced size = %d", size)
	}
}

func TestEDNS0ClampsTinySizes(t *testing.T) {
	m := NewQuery(5, "x.example.", TypeA)
	m.SetEDNS0(100)
	if size, ok := m.EDNS0(); !ok || size != 512 {
		t.Fatalf("clamped size = %d, %v", size, ok)
	}
}

// TestRecordLayout pins the record size zone stores are budgeted by: a
// generated world holds tens of thousands of records, so every byte here is
// paid per record.
func TestRecordLayout(t *testing.T) {
	if n := unsafe.Sizeof(Record{}); n > 72 {
		t.Errorf("unsafe.Sizeof(Record{}) = %d, want at most 72", n)
	}
}

// TestUnpackSharesNamesWithinMessage checks the decoder's per-message name
// table: the owner every answer repeats is one string, not one per record.
func TestUnpackSharesNamesWithinMessage(t *testing.T) {
	m := &Message{Header: Header{Response: true}, Answers: sampleRecords()}
	b, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	first := unsafe.StringData(got.Answers[0].Name)
	for _, r := range got.Answers {
		if r.Name == got.Answers[0].Name && unsafe.StringData(r.Name) != first {
			t.Fatalf("owner %s decoded into more than one string", r.Name)
		}
	}
}
