package main

import (
	"context"
	"strings"
	"testing"
)

// TestLiveDNSPrintsEverySection runs the example over loopback sockets and
// checks that every section is printed. Ports vary run to run, so the bytes
// are not pinned.
func TestLiveDNSPrintsEverySection(t *testing.T) {
	var b strings.Builder
	if err := livedns(context.Background(), &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, section := range []string{
		"authoritative DNS for ",
		"dig NS ",
		"dig SOA ",
		"dig CNAME www.",
		"TLS fetch of ",
		"  issuer:   DigiCert SHA2 Secure Server CA (digicert.com)",
		"  OCSP:     [http://ocsp.digicert.com]",
		"  CDP:      [http://crl.digicert.com/ca.crl]",
		"  stapled:  true",
		"raw query packet: ",
	} {
		if !strings.Contains(out, section) {
			t.Errorf("output lacks %q:\n%s", section, out)
		}
	}
}
