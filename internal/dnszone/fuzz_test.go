package dnszone

import (
	"bytes"
	"strings"
	"testing"
)

func FuzzParseZone(f *testing.F) {
	f.Add(sampleZone)
	f.Add("$ORIGIN x.\n@ IN SOA a. b. 1 2 3 4 5\n")
	f.Add("$TTL 60\n")
	f.Add("@ IN TXT \"unterminated\n")
	f.Fuzz(func(t *testing.T, zone string) {
		z, err := ParseZone(strings.NewReader(zone))
		if err != nil {
			return
		}
		// Any zone that parses must serialize and re-parse.
		var buf bytes.Buffer
		if _, err := z.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo of parsed zone failed: %v", err)
		}
		z2, err := ParseZone(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v\n%s", err, buf.String())
		}
		if z.Origin != z2.Origin {
			t.Fatalf("origin changed: %q vs %q", z.Origin, z2.Origin)
		}
		if len(zoneNames(z)) != len(zoneNames(z2)) {
			t.Fatalf("node count changed: %d vs %d", len(zoneNames(z)), len(zoneNames(z2)))
		}
	})
}
