// Package alexa reads ranked website lists in the CSV format of the Alexa
// top-sites snapshots the paper samples ("rank,domain" per line), and
// builds the same list from domains given in order. It lets the tooling
// operate on externally supplied lists — a saved Alexa snapshot, a Tranco
// list, or an exported synthetic world.
package alexa

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Entry is one ranked site.
type Entry struct {
	Rank   int
	Domain string
}

// List is a ranked site list, ordered by rank.
type List []Entry

// Domains returns the domains in rank order.
func (l List) Domains() []string {
	out := make([]string, len(l))
	for i, e := range l {
		out[i] = e.Domain
	}
	return out
}

// Read parses a ranked list. Accepted line forms: "rank,domain" (Alexa/
// Tranco CSV) and bare "domain" (rank is the line number). Blank lines and
// #-comments are skipped. Entries are validated and returned sorted by
// rank; a third field, an invalid domain name, and duplicate ranks or
// domains are errors.
func Read(r io.Reader) (List, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var b builder
	lineNo := 0
	implicit := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var e Entry
		if rank, domain, ok := strings.Cut(line, ","); ok {
			if strings.Contains(domain, ",") {
				return nil, fmt.Errorf("alexa: line %d: more than two fields", lineNo)
			}
			n, err := strconv.Atoi(strings.TrimSpace(rank))
			if err != nil {
				return nil, fmt.Errorf("alexa: line %d: bad rank: %v", lineNo, err)
			}
			e = Entry{Rank: n, Domain: domain}
		} else {
			implicit++
			e = Entry{Rank: implicit, Domain: line}
		}
		if err := b.add(e); err != nil {
			return nil, fmt.Errorf("alexa: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(b.list, func(i, j int) bool { return b.list[i].Rank < b.list[j].Rank })
	return b.list, nil
}

// FromDomains builds a list with ranks 1..n from domains in order, under
// the rules Read applies to a list's domains.
func FromDomains(domains []string) (List, error) {
	var b builder
	for i, d := range domains {
		if err := b.add(Entry{Rank: i + 1, Domain: d}); err != nil {
			return nil, fmt.Errorf("alexa: site %d: %v", i+1, err)
		}
	}
	return b.list, nil
}

// builder collects validated entries, refusing repeated ranks and domains.
type builder struct {
	list    List
	ranks   map[int]bool
	domains map[string]bool
}

// add lowercases e's domain, drops the trailing dot of a fully qualified
// name, and appends e if its rank and domain are valid and new.
func (b *builder) add(e Entry) error {
	e.Domain = strings.ToLower(strings.TrimSuffix(strings.TrimSpace(e.Domain), "."))
	if err := checkDomain(e.Domain); err != nil {
		return err
	}
	if e.Rank <= 0 {
		return fmt.Errorf("invalid rank %d", e.Rank)
	}
	if b.ranks == nil {
		b.ranks, b.domains = map[int]bool{}, map[string]bool{}
	}
	if b.ranks[e.Rank] {
		return fmt.Errorf("duplicate rank %d", e.Rank)
	}
	if b.domains[e.Domain] {
		return fmt.Errorf("duplicate domain %s", e.Domain)
	}
	b.ranks[e.Rank] = true
	b.domains[e.Domain] = true
	b.list = append(b.list, e)
	return nil
}

// checkDomain accepts a normalized host name of at least two labels, each
// of 1–63 letters, digits or hyphens that neither starts nor ends with a
// hyphen, at most 253 octets in all: a name the resolver can ask about.
func checkDomain(d string) error {
	if len(d) > 253 || !strings.Contains(d, ".") {
		return fmt.Errorf("invalid domain %q", d)
	}
	for _, label := range strings.Split(d, ".") {
		if len(label) == 0 || len(label) > 63 {
			return fmt.Errorf("invalid domain %q: label of %d octets", d, len(label))
		}
		if label[0] == '-' || label[len(label)-1] == '-' {
			return fmt.Errorf("invalid domain %q: label %q starts or ends with a hyphen", d, label)
		}
		for i := 0; i < len(label); i++ {
			if c := label[i]; !('a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '-') {
				return fmt.Errorf("invalid domain %q: character %q", d, c)
			}
		}
	}
	return nil
}
