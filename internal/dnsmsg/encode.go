package dnsmsg

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Encoding errors.
var (
	ErrNameTooLong  = errors.New("dnsmsg: domain name exceeds 255 octets")
	ErrLabelTooLong = errors.New("dnsmsg: label exceeds 63 octets")
	ErrEmptyLabel   = errors.New("dnsmsg: empty label in domain name")
	ErrTooManyRRs   = errors.New("dnsmsg: section exceeds 65535 records")
)

// encoder serializes a message with RFC 1035 §4.1.4 name compression.
type encoder struct {
	buf []byte
	// base is the offset in buf where the current message starts;
	// compression pointers are relative to it.
	base int
	// ptrs maps a fully-qualified name suffix, as written, to its
	// message-relative offset for compression-pointer reuse. Offsets beyond
	// 0x3FFF cannot be encoded as pointers and are not stored. The match is
	// case-sensitive: DNS compares names without case, but a pointer to a
	// differently cased suffix would decode as a different string than the
	// one packed.
	ptrs map[string]int
}

// encPool recycles encoders (and their compression-pointer maps) across
// Pack calls; the serving path packs one response per query and the map was
// a measurable share of its garbage.
var encPool = sync.Pool{New: func() any {
	return &encoder{ptrs: make(map[string]int)}
}}

// bufPool recycles wire-format buffers for the serving and transport hot
// paths; see GetPacketBuf.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// GetPacketBuf returns a reusable wire-format buffer (length 0, capacity at
// least 512). Pass it to AppendPack and hand it back with PutPacketBuf once
// the packed bytes have been written out.
func GetPacketBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutPacketBuf recycles a buffer obtained from GetPacketBuf. The caller
// must not retain any slice of it afterwards.
func PutPacketBuf(b *[]byte) {
	*b = (*b)[:0]
	bufPool.Put(b)
}

// Pack serializes m into wire format.
func (m *Message) Pack() ([]byte, error) {
	return m.AppendPack(make([]byte, 0, 512))
}

// AppendPack serializes m into wire format appended to dst and returns the
// extended slice, which may have been reallocated. Compression pointers are
// relative to the start of the appended message, so dst may already hold
// other bytes (a pooled buffer, a TCP length prefix).
func (m *Message) AppendPack(dst []byte) ([]byte, error) {
	if len(m.Questions) > 0xFFFF || len(m.Answers) > 0xFFFF ||
		len(m.Authority) > 0xFFFF || len(m.Additional) > 0xFFFF {
		return nil, ErrTooManyRRs
	}
	e := encPool.Get().(*encoder)
	e.buf = dst
	e.base = len(dst)
	clear(e.ptrs)
	defer func() {
		e.buf = nil
		encPool.Put(e)
	}()
	e.uint16(m.Header.ID)
	var flags uint16
	if m.Header.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Header.OpCode&0xF) << 11
	if m.Header.Authoritative {
		flags |= 1 << 10
	}
	if m.Header.Truncated {
		flags |= 1 << 9
	}
	if m.Header.RecursionDesired {
		flags |= 1 << 8
	}
	if m.Header.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.Header.RCode & 0xF)
	e.uint16(flags)
	e.uint16(uint16(len(m.Questions)))
	e.uint16(uint16(len(m.Answers)))
	e.uint16(uint16(len(m.Authority)))
	e.uint16(uint16(len(m.Additional)))

	for _, q := range m.Questions {
		if err := e.name(q.Name); err != nil {
			return nil, err
		}
		e.uint16(uint16(q.Type))
		e.uint16(uint16(q.Class))
	}
	for _, sec := range [][]Record{m.Answers, m.Authority, m.Additional} {
		for i := range sec {
			if err := e.record(&sec[i]); err != nil {
				return nil, err
			}
		}
	}
	return e.buf, nil
}

func (e *encoder) uint16(v uint16) {
	e.buf = append(e.buf, byte(v>>8), byte(v))
}

func (e *encoder) uint32(v uint32) {
	e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// name writes a (possibly compressed) domain name.
func (e *encoder) name(name string) error {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		e.buf = append(e.buf, 0)
		return nil
	}
	if len(name) > 254 {
		return ErrNameTooLong
	}
	labels := strings.Split(name, ".")
	for i := range labels {
		if labels[i] == "" {
			return ErrEmptyLabel
		}
		if len(labels[i]) > 63 {
			return ErrLabelTooLong
		}
		suffix := strings.Join(labels[i:], ".")
		if off, ok := e.ptrs[suffix]; ok {
			e.uint16(uint16(off) | 0xC000)
			return nil
		}
		if off := len(e.buf) - e.base; off <= 0x3FFF {
			e.ptrs[suffix] = off
		}
		e.buf = append(e.buf, byte(len(labels[i])))
		e.buf = append(e.buf, labels[i]...)
	}
	e.buf = append(e.buf, 0)
	return nil
}

// record writes one resource record, patching RDLENGTH once the RDATA is
// written.
func (e *encoder) record(r *Record) error {
	if err := e.name(r.Name); err != nil {
		return err
	}
	e.uint16(uint16(r.Type))
	e.uint16(uint16(r.Class))
	e.uint32(r.TTL)
	// Reserve RDLENGTH and patch after writing RDATA.
	lenOff := len(e.buf)
	e.uint16(0)
	start := len(e.buf)
	if err := e.rdata(r); err != nil {
		return err
	}
	rdlen := len(e.buf) - start
	if rdlen > 0xFFFF {
		return fmt.Errorf("dnsmsg: RDATA of %s too long (%d bytes)", r.Name, rdlen)
	}
	e.buf[lenOff] = byte(rdlen >> 8)
	e.buf[lenOff+1] = byte(rdlen)
	return nil
}

func (e *encoder) rdata(r *Record) error {
	switch r.Type {
	case TypeA:
		e.buf = append(e.buf, r.Addr[:4]...)
	case TypeAAAA:
		e.buf = append(e.buf, r.Addr[:]...)
	case TypeNS, TypeCNAME, TypePTR:
		return e.name(r.Target)
	case TypeSOA:
		if r.Data == nil {
			return fmt.Errorf("dnsmsg: SOA record %s has no SOA data", r.Name)
		}
		soa := &r.Data.SOA
		if err := e.name(soa.MName); err != nil {
			return err
		}
		if err := e.name(soa.RName); err != nil {
			return err
		}
		e.uint32(soa.Serial)
		e.uint32(soa.Refresh)
		e.uint32(soa.Retry)
		e.uint32(soa.Expire)
		e.uint32(soa.Minimum)
	case TypeMX:
		if r.Data == nil {
			return fmt.Errorf("dnsmsg: MX record %s has no MX data", r.Name)
		}
		e.uint16(r.Data.MX.Preference)
		return e.name(r.Data.MX.Exchange)
	case TypeTXT:
		var txt []string
		if r.Data != nil {
			txt = r.Data.TXT
		}
		for _, s := range txt {
			for len(s) > 255 {
				e.buf = append(e.buf, 255)
				e.buf = append(e.buf, s[:255]...)
				s = s[255:]
			}
			e.buf = append(e.buf, byte(len(s)))
			e.buf = append(e.buf, s...)
		}
		if len(txt) == 0 {
			e.buf = append(e.buf, 0)
		}
	default:
		if r.Data != nil {
			e.buf = append(e.buf, r.Data.Raw...)
		}
	}
	return nil
}
