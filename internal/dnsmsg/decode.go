package dnsmsg

import (
	"errors"
	"fmt"
	"strings"
)

// Decoding errors.
var (
	ErrShortMessage = errors.New("dnsmsg: message too short")
	ErrPointerLoop  = errors.New("dnsmsg: compression pointer loop")
	ErrBadPointer   = errors.New("dnsmsg: compression pointer out of range")
)

// decoder walks a wire-format message.
type decoder struct {
	buf []byte
	off int
	// names[:nnames] are the distinct names decoded so far from this
	// message, the first maxMessageNames of them: see name.
	names  [maxMessageNames]string
	nnames int
}

// maxMessageNames caps a decoder's name table, which is scanned linearly.
// A typical response names a handful of hosts; the cap keeps a crafted
// message with thousands of distinct names from costing quadratic time.
const maxMessageNames = 16

// Unpack parses a wire-format DNS message.
func Unpack(b []byte) (*Message, error) {
	d := &decoder{buf: b}
	m := &Message{}

	id, err := d.uint16()
	if err != nil {
		return nil, err
	}
	flags, err := d.uint16()
	if err != nil {
		return nil, err
	}
	m.Header = Header{
		ID:                 id,
		Response:           flags&(1<<15) != 0,
		OpCode:             OpCode(flags >> 11 & 0xF),
		Authoritative:      flags&(1<<10) != 0,
		Truncated:          flags&(1<<9) != 0,
		RecursionDesired:   flags&(1<<8) != 0,
		RecursionAvailable: flags&(1<<7) != 0,
		RCode:              RCode(flags & 0xF),
	}
	counts := make([]uint16, 4)
	for i := range counts {
		if counts[i], err = d.uint16(); err != nil {
			return nil, err
		}
	}

	for i := 0; i < int(counts[0]); i++ {
		q, err := d.question()
		if err != nil {
			return nil, fmt.Errorf("question %d: %w", i, err)
		}
		m.Questions = append(m.Questions, q)
	}
	sections := []*[]Record{&m.Answers, &m.Authority, &m.Additional}
	names := []string{"answer", "authority", "additional"}
	for s, sec := range sections {
		for i := 0; i < int(counts[s+1]); i++ {
			r, err := d.rr()
			if err != nil {
				return nil, fmt.Errorf("%s %d: %w", names[s], i, err)
			}
			*sec = append(*sec, r)
		}
	}
	return m, nil
}

func (d *decoder) uint8() (byte, error) {
	if d.off+1 > len(d.buf) {
		return 0, ErrShortMessage
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

func (d *decoder) uint16() (uint16, error) {
	if d.off+2 > len(d.buf) {
		return 0, ErrShortMessage
	}
	v := uint16(d.buf[d.off])<<8 | uint16(d.buf[d.off+1])
	d.off += 2
	return v, nil
}

func (d *decoder) uint32() (uint32, error) {
	if d.off+4 > len(d.buf) {
		return 0, ErrShortMessage
	}
	v := uint32(d.buf[d.off])<<24 | uint32(d.buf[d.off+1])<<16 |
		uint32(d.buf[d.off+2])<<8 | uint32(d.buf[d.off+3])
	d.off += 4
	return v, nil
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.off+n > len(d.buf) {
		return nil, ErrShortMessage
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

// name reads a possibly-compressed domain name starting at the current
// offset, leaving the offset just past the name. Names repeat within a
// message (every record of a response carries the zone's names), so the
// decoder returns the string it already made for an equal name instead of
// allocating another. The table lives only as long as one message's
// decode: no sequence of messages can grow memory beyond what the decoded
// messages themselves retain.
func (d *decoder) name() (string, error) {
	// RFC 1035 caps a name at 255 octets; the scratch array covers the
	// presentation form of any legal name without heap growth.
	var scratch [256]byte
	b, next, err := readName(d.buf, d.off, scratch[:0])
	if err != nil {
		return "", err
	}
	d.off = next
	for _, s := range d.names[:d.nnames] {
		if s == string(b) {
			return s, nil
		}
	}
	s := string(b)
	if d.nnames < maxMessageNames {
		d.names[d.nnames] = s
		d.nnames++
	}
	return s, nil
}

// readName appends the presentation form of the name at off to dst ("."
// for the root) and returns it with the offset of the first byte after the
// name's in-place representation.
func readName(buf []byte, off int, dst []byte) ([]byte, int, error) {
	name := dst
	// A message has at most len(buf) pointers; more indicates a loop.
	maxJumps := len(buf)
	jumps := 0
	next := -1 // offset after the first pointer, i.e. where parsing resumes
	for {
		if off >= len(buf) {
			return nil, 0, ErrShortMessage
		}
		b := buf[off]
		switch {
		case b == 0:
			if next < 0 {
				next = off + 1
			}
			if len(name) == len(dst) {
				name = append(name, '.')
			}
			return name, next, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(buf) {
				return nil, 0, ErrShortMessage
			}
			ptr := int(b&0x3F)<<8 | int(buf[off+1])
			if next < 0 {
				next = off + 2
			}
			if ptr >= off {
				// Forward or self pointers are invalid and can loop.
				return nil, 0, ErrBadPointer
			}
			jumps++
			if jumps > maxJumps {
				return nil, 0, ErrPointerLoop
			}
			off = ptr
		case b&0xC0 != 0:
			return nil, 0, fmt.Errorf("dnsmsg: reserved label type %#x", b&0xC0)
		default:
			n := int(b)
			if off+1+n > len(buf) {
				return nil, 0, ErrShortMessage
			}
			name = append(name, buf[off+1:off+1+n]...)
			name = append(name, '.')
			off += 1 + n
		}
	}
}

func (d *decoder) question() (Question, error) {
	name, err := d.name()
	if err != nil {
		return Question{}, err
	}
	t, err := d.uint16()
	if err != nil {
		return Question{}, err
	}
	c, err := d.uint16()
	if err != nil {
		return Question{}, err
	}
	return Question{Name: name, Type: Type(t), Class: Class(c)}, nil
}

func (d *decoder) rr() (Record, error) {
	name, err := d.name()
	if err != nil {
		return Record{}, err
	}
	t, err := d.uint16()
	if err != nil {
		return Record{}, err
	}
	c, err := d.uint16()
	if err != nil {
		return Record{}, err
	}
	ttl, err := d.uint32()
	if err != nil {
		return Record{}, err
	}
	rdlen, err := d.uint16()
	if err != nil {
		return Record{}, err
	}
	if d.off+int(rdlen) > len(d.buf) {
		return Record{}, ErrShortMessage
	}
	r := Record{Name: name, Type: Type(t), Class: Class(c), TTL: ttl}
	end := d.off + int(rdlen)
	if err := d.decodeRDATA(&r, end); err != nil {
		return Record{}, err
	}
	if d.off != end {
		return Record{}, fmt.Errorf("dnsmsg: %s RDATA length mismatch (at %d, want %d)", r.Type, d.off, end)
	}
	return r, nil
}

func (d *decoder) decodeRDATA(r *Record, end int) error {
	switch r.Type {
	case TypeA:
		ip, err := d.bytes(4)
		if err != nil {
			return err
		}
		copy(r.Addr[:], ip)
	case TypeAAAA:
		ip, err := d.bytes(16)
		if err != nil {
			return err
		}
		copy(r.Addr[:], ip)
	case TypeNS, TypeCNAME, TypePTR:
		t, err := d.name()
		if err != nil {
			return err
		}
		r.Target = t
	case TypeSOA:
		rd := &Rdata{}
		soa := &rd.SOA
		var err error
		if soa.MName, err = d.name(); err != nil {
			return err
		}
		if soa.RName, err = d.name(); err != nil {
			return err
		}
		if soa.Serial, err = d.uint32(); err != nil {
			return err
		}
		if soa.Refresh, err = d.uint32(); err != nil {
			return err
		}
		if soa.Retry, err = d.uint32(); err != nil {
			return err
		}
		if soa.Expire, err = d.uint32(); err != nil {
			return err
		}
		if soa.Minimum, err = d.uint32(); err != nil {
			return err
		}
		r.Data = rd
	case TypeMX:
		rd := &Rdata{}
		var err error
		if rd.MX.Preference, err = d.uint16(); err != nil {
			return err
		}
		if rd.MX.Exchange, err = d.name(); err != nil {
			return err
		}
		r.Data = rd
	case TypeTXT:
		// RFC 1035 §3.3.14: TXT-DATA is one or more character-strings.
		if d.off == end {
			return fmt.Errorf("dnsmsg: TXT RDATA holds no character-string")
		}
		var txt []string
		for d.off < end {
			n, err := d.uint8()
			if err != nil {
				return err
			}
			s, err := d.bytes(int(n))
			if err != nil {
				return err
			}
			txt = append(txt, string(s))
		}
		r.Data = &Rdata{TXT: txt}
	default:
		raw, err := d.bytes(end - d.off)
		if err != nil {
			return err
		}
		if len(raw) > 0 {
			// Empty RDATA (an EDNS0 OPT record, typically) needs no Rdata.
			r.Data = &Rdata{Raw: append([]byte(nil), raw...)}
		}
	}
	return nil
}

// CanonicalName lowercases a DNS name and ensures a trailing dot, the form
// used as map keys throughout the zone store and resolver cache. Names that
// are already canonical — lowercase ASCII with a trailing dot, the common
// case on the measurement hot path, where the measurer canonicalizes each
// name once before asking — are returned unchanged without allocating.
func CanonicalName(name string) string {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c >= 'A' && c <= 'Z') || c <= ' ' || c >= 0x80 {
			return canonicalNameSlow(name)
		}
	}
	if len(name) == 0 {
		return "."
	}
	if name[len(name)-1] != '.' {
		return name + "."
	}
	return name
}

func canonicalNameSlow(name string) string {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" || name == "." {
		return "."
	}
	if !strings.HasSuffix(name, ".") {
		name += "."
	}
	return name
}
