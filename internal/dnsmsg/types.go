// Package dnsmsg implements the DNS wire format of RFC 1035: message
// header, question and resource-record encoding and decoding, including
// domain-name compression pointers.
//
// It is the protocol substrate for the measurement pipeline: the paper's
// methodology is built on dig NS / dig SOA / dig CNAME queries, and this
// package provides the packet layer those queries travel on. EDNS(0) is
// supported to the extent a measurement client needs it: advertising and
// honouring larger UDP payload sizes (RFC 6891).
package dnsmsg

import "fmt"

// Type is a DNS RR TYPE or QTYPE (RFC 1035 §3.2.2, §3.2.3).
type Type uint16

// Resource record types used by the measurement pipeline.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypePTR   Type = 12
	TypeMX    Type = 15
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeOPT   Type = 41
	TypeAXFR  Type = 252
	TypeANY   Type = 255
)

// String returns the conventional mnemonic for t.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypePTR:
		return "PTR"
	case TypeMX:
		return "MX"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	case TypeOPT:
		return "OPT"
	case TypeAXFR:
		return "AXFR"
	case TypeANY:
		return "ANY"
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// Class is a DNS CLASS (RFC 1035 §3.2.4). Only IN is used in practice.
type Class uint16

// DNS classes.
const (
	ClassIN  Class = 1
	ClassANY Class = 255
)

// String returns the conventional mnemonic for c.
func (c Class) String() string {
	switch c {
	case ClassIN:
		return "IN"
	case ClassANY:
		return "ANY"
	}
	return fmt.Sprintf("CLASS%d", uint16(c))
}

// RCode is a DNS response code (RFC 1035 §4.1.1).
type RCode uint8

// Response codes.
const (
	RCodeSuccess        RCode = 0 // NOERROR
	RCodeFormatError    RCode = 1 // FORMERR
	RCodeServerFailure  RCode = 2 // SERVFAIL
	RCodeNameError      RCode = 3 // NXDOMAIN
	RCodeNotImplemented RCode = 4 // NOTIMP
	RCodeRefused        RCode = 5 // REFUSED
)

// String returns the conventional mnemonic for rc.
func (rc RCode) String() string {
	switch rc {
	case RCodeSuccess:
		return "NOERROR"
	case RCodeFormatError:
		return "FORMERR"
	case RCodeServerFailure:
		return "SERVFAIL"
	case RCodeNameError:
		return "NXDOMAIN"
	case RCodeNotImplemented:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	}
	return fmt.Sprintf("RCODE%d", uint8(rc))
}

// OpCode is a DNS operation code. Only standard queries are supported.
type OpCode uint8

// Operation codes.
const (
	OpCodeQuery  OpCode = 0
	OpCodeStatus OpCode = 2
)

// Header is the 12-byte DNS message header (RFC 1035 §4.1.1), with the
// count fields implied by the Message slices.
type Header struct {
	ID                 uint16
	Response           bool // QR
	OpCode             OpCode
	Authoritative      bool // AA
	Truncated          bool // TC
	RecursionDesired   bool // RD
	RecursionAvailable bool // RA
	RCode              RCode
}

// Question is a DNS question section entry (RFC 1035 §4.1.2).
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// String formats the question dig-style.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", q.Name, q.Class, q.Type)
}

// SOAData is the RDATA of an SOA record (RFC 1035 §3.3.13). MName is the
// primary master nameserver; RName encodes the administrator mailbox. The
// paper's redundancy heuristic groups nameservers by equal MNAME or RNAME.
type SOAData struct {
	MName   string
	RName   string
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

// MXData is the RDATA of an MX record.
type MXData struct {
	Preference uint16
	Exchange   string
}

// Rdata holds the RDATA of the record types that are neither an address
// nor a single name. Exactly one field is meaningful, selected by the
// record's Type: SOA, MX, TXT, or Raw for any type the codec does not
// know. These types are rare in answers (the generated worlds hold one SOA
// per zone and no MX or TXT at all), so they sit behind one pointer and
// cost the common record nothing.
type Rdata struct {
	SOA SOAData
	MX  MXData
	TXT []string
	Raw []byte
}

// Record is a decoded resource record. The RDATA lives where its type puts
// it:
//
//	A/AAAA -> Addr (A uses the first 4 bytes)
//	NS/CNAME/PTR -> Target
//	SOA/MX/TXT and unknown types -> Data
//
// The layout is sized for zone stores, which hold records by the tens of
// thousands: 64 bytes, addresses inline (an A record allocates nothing but
// its names), and the three pointer words first, so the garbage collector
// scans 40 bytes of each record rather than all of it.
type Record struct {
	Name   string
	Target string
	Data   *Rdata

	Type  Type
	Class Class
	TTL   uint32
	Addr  [16]byte
}

// IPv4 returns the inline address of the A record for a.b.c.d.
func IPv4(a, b, c, d byte) [16]byte { return [16]byte{a, b, c, d} }

// IP returns the address of an A (4 bytes) or AAAA (16 bytes) record as a
// slice of r.Addr, and nil for any other type.
func (r *Record) IP() []byte {
	switch r.Type {
	case TypeA:
		return r.Addr[:4]
	case TypeAAAA:
		return r.Addr[:]
	}
	return nil
}

// String formats the record zone-file-style.
func (r Record) String() string {
	switch r.Type {
	case TypeA, TypeAAAA:
		return fmt.Sprintf("%s %d %s %s %s", r.Name, r.TTL, r.Class, r.Type, ipString(r.IP()))
	case TypeNS, TypeCNAME, TypePTR:
		return fmt.Sprintf("%s %d %s %s %s", r.Name, r.TTL, r.Class, r.Type, r.Target)
	case TypeSOA:
		if r.Data != nil {
			soa := &r.Data.SOA
			return fmt.Sprintf("%s %d %s SOA %s %s %d %d %d %d %d", r.Name, r.TTL, r.Class,
				soa.MName, soa.RName, soa.Serial, soa.Refresh, soa.Retry, soa.Expire, soa.Minimum)
		}
	case TypeMX:
		if r.Data != nil {
			return fmt.Sprintf("%s %d %s MX %d %s", r.Name, r.TTL, r.Class, r.Data.MX.Preference, r.Data.MX.Exchange)
		}
	case TypeTXT:
		var txt []string
		if r.Data != nil {
			txt = r.Data.TXT
		}
		return fmt.Sprintf("%s %d %s TXT %q", r.Name, r.TTL, r.Class, txt)
	}
	var raw []byte
	if r.Data != nil {
		raw = r.Data.Raw
	}
	return fmt.Sprintf("%s %d %s %s [%d bytes]", r.Name, r.TTL, r.Class, r.Type, len(raw))
}

func ipString(b []byte) string {
	switch len(b) {
	case 4:
		return fmt.Sprintf("%d.%d.%d.%d", b[0], b[1], b[2], b[3])
	case 16:
		s := ""
		for i := 0; i < 16; i += 2 {
			if i > 0 {
				s += ":"
			}
			s += fmt.Sprintf("%x", uint16(b[i])<<8|uint16(b[i+1]))
		}
		return s
	}
	return fmt.Sprintf("%x", b)
}

// Message is a complete DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []Record
	Authority  []Record
	Additional []Record
}

// NewQuery constructs a standard recursion-desired query for (name, type).
func NewQuery(id uint16, name string, qtype Type) *Message {
	return &Message{
		Header: Header{ID: id, RecursionDesired: true},
		Questions: []Question{{
			Name:  name,
			Type:  qtype,
			Class: ClassIN,
		}},
	}
}

// SetEDNS0 attaches an EDNS(0) OPT pseudo-record (RFC 6891) advertising the
// given UDP payload size, replacing any existing OPT record.
func (m *Message) SetEDNS0(udpSize uint16) {
	kept := m.Additional[:0]
	for _, r := range m.Additional {
		if r.Type != TypeOPT {
			kept = append(kept, r)
		}
	}
	m.Additional = append(kept, Record{
		Name:  ".",
		Type:  TypeOPT,
		Class: Class(udpSize),
	})
}

// EDNS0 reports the advertised UDP payload size of the message's OPT
// record, if present. Sizes below 512 are clamped up per RFC 6891.
func (m *Message) EDNS0() (udpSize uint16, ok bool) {
	for _, r := range m.Additional {
		if r.Type == TypeOPT {
			size := uint16(r.Class)
			if size < 512 {
				size = 512
			}
			return size, true
		}
	}
	return 0, false
}

// Reply constructs a response skeleton mirroring the query's ID, question
// and RD bit.
func (m *Message) Reply() *Message {
	r := &Message{
		Header: Header{
			ID:               m.Header.ID,
			Response:         true,
			OpCode:           m.Header.OpCode,
			RecursionDesired: m.Header.RecursionDesired,
		},
	}
	r.Questions = append(r.Questions, m.Questions...)
	return r
}
