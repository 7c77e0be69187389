package dnszone

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"depscope/internal/dnsmsg"
)

// Zone-file support: a reader and writer for the RFC 1035 master-file
// subset the simulator uses (SOA, NS, A, AAAA, CNAME, MX, TXT; $ORIGIN and
// $TTL directives; relative names and the @ origin shorthand). It lets
// cmd/depserver load hand-written zones and makes generated worlds
// exportable for inspection with standard tooling.

// ParseZone reads one zone in master-file syntax. The zone's origin is
// taken from the $ORIGIN directive or, if absent, from the owner of the SOA
// record. The SOA record is mandatory.
func ParseZone(r io.Reader) (*Zone, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)

	origin := ""
	defaultTTL := uint32(3600)
	lastOwner := ""
	var records []dnsmsg.Record
	var soa *dnsmsg.Record
	lineNo := 0

	for sc.Scan() {
		lineNo++
		line := stripComment(sc.Text())
		if strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		switch strings.ToUpper(fields[0]) {
		case "$ORIGIN":
			if len(fields) != 2 {
				return nil, fmt.Errorf("dnszone: line %d: $ORIGIN needs one argument", lineNo)
			}
			if strings.ContainsRune(fields[1], '"') {
				return nil, fmt.Errorf("dnszone: line %d: %w", lineNo, errQuotedName)
			}
			origin = dnsmsg.CanonicalName(fields[1])
			continue
		case "$TTL":
			if len(fields) != 2 {
				return nil, fmt.Errorf("dnszone: line %d: $TTL needs one argument", lineNo)
			}
			v, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("dnszone: line %d: bad $TTL: %v", lineNo, err)
			}
			defaultTTL = uint32(v)
			continue
		}

		rec, owner, err := parseRecordLine(line, origin, lastOwner, defaultTTL)
		if err != nil {
			return nil, fmt.Errorf("dnszone: line %d: %w", lineNo, err)
		}
		lastOwner = owner
		if rec.Type == dnsmsg.TypeSOA {
			if soa != nil {
				return nil, fmt.Errorf("dnszone: line %d: duplicate SOA", lineNo)
			}
			soa = &rec
			if origin == "" {
				origin = rec.Name
			}
			continue
		}
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if soa == nil {
		return nil, fmt.Errorf("dnszone: zone has no SOA record")
	}
	if origin == "" {
		origin = soa.Name
	}
	z := NewZone(origin, soa.Data.SOA)
	for _, rec := range records {
		if err := z.Add(rec); err != nil {
			return nil, err
		}
	}
	return z, nil
}

func stripComment(line string) string {
	// Comments start at an unquoted semicolon.
	inQuote := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			inQuote = !inQuote
		case ';':
			if !inQuote {
				return line[:i]
			}
		}
	}
	return line
}

// parseRecordLine parses "owner [ttl] [IN] TYPE rdata...". A line starting
// with whitespace inherits the previous owner.
func parseRecordLine(line, origin, lastOwner string, defaultTTL uint32) (dnsmsg.Record, string, error) {
	startsWithSpace := line[0] == ' ' || line[0] == '\t'
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return dnsmsg.Record{}, "", fmt.Errorf("short record line")
	}
	var owner string
	var err error
	if startsWithSpace {
		if lastOwner == "" {
			return dnsmsg.Record{}, "", fmt.Errorf("record with inherited owner before any owner")
		}
		owner = lastOwner
	} else {
		if owner, err = absName(fields[0], origin); err != nil {
			return dnsmsg.Record{}, "", err
		}
		fields = fields[1:]
	}

	ttl := defaultTTL
	if len(fields) > 0 {
		if v, err := strconv.ParseUint(fields[0], 10, 32); err == nil {
			ttl = uint32(v)
			fields = fields[1:]
		}
	}
	if len(fields) > 0 && strings.EqualFold(fields[0], "IN") {
		fields = fields[1:]
	}
	if len(fields) == 0 {
		return dnsmsg.Record{}, "", fmt.Errorf("record without type")
	}
	typ := strings.ToUpper(fields[0])
	rdata := fields[1:]

	rec := dnsmsg.Record{Name: owner, Class: dnsmsg.ClassIN, TTL: ttl}
	switch typ {
	case "A":
		if len(rdata) != 1 {
			return rec, "", fmt.Errorf("A needs one address")
		}
		if err := parseIPv4(rdata[0], &rec.Addr); err != nil {
			return rec, "", err
		}
		rec.Type = dnsmsg.TypeA
	case "AAAA":
		if len(rdata) != 1 {
			return rec, "", fmt.Errorf("AAAA needs one address")
		}
		if err := parseIPv6(rdata[0], &rec.Addr); err != nil {
			return rec, "", err
		}
		rec.Type = dnsmsg.TypeAAAA
	case "NS":
		if len(rdata) != 1 {
			return rec, "", fmt.Errorf("NS needs one target")
		}
		rec.Type = dnsmsg.TypeNS
		if rec.Target, err = absName(rdata[0], origin); err != nil {
			return rec, "", err
		}
	case "CNAME":
		if len(rdata) != 1 {
			return rec, "", fmt.Errorf("CNAME needs one target")
		}
		rec.Type = dnsmsg.TypeCNAME
		if rec.Target, err = absName(rdata[0], origin); err != nil {
			return rec, "", err
		}
	case "MX":
		if len(rdata) != 2 {
			return rec, "", fmt.Errorf("MX needs preference and exchange")
		}
		pref, err := strconv.ParseUint(rdata[0], 10, 16)
		if err != nil {
			return rec, "", fmt.Errorf("bad MX preference: %v", err)
		}
		exchange, err := absName(rdata[1], origin)
		if err != nil {
			return rec, "", err
		}
		rec.Type = dnsmsg.TypeMX
		rec.Data = &dnsmsg.Rdata{MX: dnsmsg.MXData{Preference: uint16(pref), Exchange: exchange}}
	case "TXT":
		rec.Type = dnsmsg.TypeTXT
		raw := strings.TrimSpace(line[strings.Index(line, "TXT")+3:])
		txt := parseTXT(raw)
		if len(txt) == 0 {
			return rec, "", fmt.Errorf("TXT needs at least one string")
		}
		rec.Data = &dnsmsg.Rdata{TXT: txt}
	case "SOA":
		if len(rdata) != 7 {
			return rec, "", fmt.Errorf("SOA needs mname rname serial refresh retry expire minimum")
		}
		nums := make([]uint32, 5)
		for i := 0; i < 5; i++ {
			v, err := strconv.ParseUint(rdata[2+i], 10, 32)
			if err != nil {
				return rec, "", fmt.Errorf("bad SOA field %d: %v", i, err)
			}
			nums[i] = uint32(v)
		}
		mname, err := absName(rdata[0], origin)
		if err != nil {
			return rec, "", err
		}
		rname, err := absName(rdata[1], origin)
		if err != nil {
			return rec, "", err
		}
		rec.Type = dnsmsg.TypeSOA
		rec.Data = &dnsmsg.Rdata{SOA: dnsmsg.SOAData{
			MName: mname, RName: rname,
			Serial: nums[0], Refresh: nums[1], Retry: nums[2], Expire: nums[3], Minimum: nums[4],
		}}
	default:
		return rec, "", fmt.Errorf("unsupported record type %q", typ)
	}
	return rec, owner, nil
}

// errQuotedName refuses a name with a double quote in it: stripComment
// reads a quote as the start of a TXT string, so such a name would not
// survive a WriteTo and re-parse.
var errQuotedName = errors.New("name contains a double quote")

// absName resolves a possibly-relative master-file name against the origin.
func absName(name, origin string) (string, error) {
	switch {
	case strings.ContainsRune(name, '"'):
		return "", fmt.Errorf("%w: %s", errQuotedName, name)
	case name == "@":
		return origin, nil
	case strings.HasSuffix(name, "."), origin == "":
		return dnsmsg.CanonicalName(name), nil
	}
	return dnsmsg.CanonicalName(name + "." + strings.TrimSuffix(origin, ".")), nil
}

// parseIPv4 parses a dotted-quad address into the first 4 bytes of out.
func parseIPv4(s string, out *[16]byte) error {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return fmt.Errorf("bad IPv4 address %q", s)
	}
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return fmt.Errorf("bad IPv4 address %q", s)
		}
		out[i] = byte(v)
	}
	return nil
}

// parseIPv6 parses an RFC 4291 address into out.
func parseIPv6(s string, out *[16]byte) error {
	// Minimal RFC 4291 parser: hex groups with one optional "::" gap.
	halves := strings.Split(s, "::")
	if len(halves) > 2 {
		return fmt.Errorf("bad IPv6 address %q", s)
	}
	parse := func(part string) ([]byte, error) {
		if part == "" {
			return nil, nil
		}
		var out []byte
		for _, g := range strings.Split(part, ":") {
			v, err := strconv.ParseUint(g, 16, 16)
			if err != nil {
				return nil, fmt.Errorf("bad IPv6 group %q", g)
			}
			out = append(out, byte(v>>8), byte(v))
		}
		return out, nil
	}
	head, err := parse(halves[0])
	if err != nil {
		return err
	}
	var tail []byte
	if len(halves) == 2 {
		if tail, err = parse(halves[1]); err != nil {
			return err
		}
	} else if len(head) != 16 {
		return fmt.Errorf("bad IPv6 address %q", s)
	}
	if len(head)+len(tail) > 16 {
		return fmt.Errorf("bad IPv6 address %q", s)
	}
	*out = [16]byte{}
	copy(out[:], head)
	copy(out[16-len(tail):], tail)
	return nil
}

// parseTXT splits quoted character-strings; unquoted text is one string.
func parseTXT(raw string) []string {
	var out []string
	i := 0
	for i < len(raw) {
		switch raw[i] {
		case ' ', '\t':
			i++
		case '"':
			end := strings.IndexByte(raw[i+1:], '"')
			if end < 0 {
				out = append(out, raw[i+1:])
				return out
			}
			out = append(out, raw[i+1:i+1+end])
			i += end + 2
		default:
			end := strings.IndexAny(raw[i:], " \t")
			if end < 0 {
				out = append(out, raw[i:])
				return out
			}
			out = append(out, raw[i:i+end])
			i += end
		}
	}
	return out
}

// WriteTo serializes the zone in master-file syntax, sorted by owner name
// with the apex first. It implements io.WriterTo.
func (z *Zone) WriteTo(w io.Writer) (int64, error) {
	var total int64
	emit := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	if err := emit("$ORIGIN %s\n$TTL 3600\n", z.Origin); err != nil {
		return total, err
	}
	soa := z.SOA()
	if err := emit("@ IN SOA %s %s %d %d %d %d %d\n",
		soa.MName, soa.RName, soa.Serial, soa.Refresh, soa.Retry, soa.Expire, soa.Minimum); err != nil {
		return total, err
	}

	// The transfer order minus its leading SOA, apex records moved first.
	recs := z.AllRecords()[1:]
	sort.SliceStable(recs, func(i, j int) bool {
		return recs[i].Name == z.Origin && recs[j].Name != z.Origin
	})
	for i := range recs {
		line, err := recordLine(&recs[i])
		if err != nil {
			return total, err
		}
		if err := emit("%s\n", line); err != nil {
			return total, err
		}
	}
	return total, nil
}

func recordLine(r *dnsmsg.Record) (string, error) {
	prefix := fmt.Sprintf("%s %d IN", r.Name, r.TTL)
	switch r.Type {
	case dnsmsg.TypeA, dnsmsg.TypeAAAA:
		return fmt.Sprintf("%s %s %s", prefix, r.Type, ipText(r.IP())), nil
	case dnsmsg.TypeNS, dnsmsg.TypeCNAME:
		return fmt.Sprintf("%s %s %s", prefix, r.Type, r.Target), nil
	case dnsmsg.TypeMX:
		if r.Data == nil {
			break
		}
		return fmt.Sprintf("%s MX %d %s", prefix, r.Data.MX.Preference, r.Data.MX.Exchange), nil
	case dnsmsg.TypeTXT:
		var txt []string
		if r.Data != nil {
			txt = r.Data.TXT
		}
		parts := make([]string, len(txt))
		for i, s := range txt {
			parts[i] = strconv.Quote(s)
		}
		return fmt.Sprintf("%s TXT %s", prefix, strings.Join(parts, " ")), nil
	}
	return "", fmt.Errorf("dnszone: cannot serialize record type %s", r.Type)
}

func ipText(b []byte) string {
	switch len(b) {
	case 4:
		return fmt.Sprintf("%d.%d.%d.%d", b[0], b[1], b[2], b[3])
	case 16:
		parts := make([]string, 8)
		for i := 0; i < 8; i++ {
			parts[i] = strconv.FormatUint(uint64(b[2*i])<<8|uint64(b[2*i+1]), 16)
		}
		return strings.Join(parts, ":")
	}
	return "?"
}
