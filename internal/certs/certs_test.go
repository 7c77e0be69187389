package certs

import (
	"context"
	"testing"
	"time"
)

func testCert() *Certificate {
	return &Certificate{
		Subject:               "youtube.com",
		SANs:                  []string{"youtube.com", "*.youtube.com", "*.google.com", "goo.gl"},
		IssuerCA:              "Google Trust Services",
		IssuerOrgDomain:       "pki.goog",
		OCSPServers:           []string{"http://ocsp.pki.goog/gts1c3"},
		CRLDistributionPoints: []string{"http://crls.pki.goog/gts1c3/zdATt0Ex_Fk.crl"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
	}
}

func TestMatchesSAN(t *testing.T) {
	c := testCert()
	tests := []struct {
		host string
		want bool
	}{
		{"youtube.com", true},
		{"www.youtube.com", true},
		{"ns1.google.com", true},
		{"google.com", false}, // *.google.com does not cover the apex
		{"deep.sub.google.com", false},
		{"goo.gl", true},
		{"evil.com", false},
		{"YOUTUBE.COM.", true},
	}
	for _, tt := range tests {
		if got := c.MatchesSAN(tt.host); got != tt.want {
			t.Errorf("MatchesSAN(%q) = %v, want %v", tt.host, got, tt.want)
		}
	}
}

func TestSANRegistrableDomains(t *testing.T) {
	c := testCert()
	rds := c.SANRegistrableDomains()
	for _, want := range []string{"youtube.com", "google.com", "goo.gl"} {
		if !rds[want] {
			t.Errorf("SANRegistrableDomains missing %q: %v", want, rds)
		}
	}
	if len(rds) != 3 {
		t.Errorf("SANRegistrableDomains = %v, want 3 entries", rds)
	}
}

func TestRevocationHosts(t *testing.T) {
	c := testCert()
	hosts := c.RevocationHosts()
	if len(hosts) != 2 || hosts[0] != "ocsp.pki.goog" || hosts[1] != "crls.pki.goog" {
		t.Errorf("RevocationHosts = %v", hosts)
	}
	// Duplicate hosts collapse.
	c.CRLDistributionPoints = append(c.CRLDistributionPoints, "http://ocsp.pki.goog/other")
	if got := c.RevocationHosts(); len(got) != 2 {
		t.Errorf("RevocationHosts with dup = %v", got)
	}
}

func TestHostFromURL(t *testing.T) {
	tests := []struct{ in, want string }{
		{"http://ocsp.digicert.com", "ocsp.digicert.com"},
		{"http://crl3.digicert.com/sha2.crl", "crl3.digicert.com"},
		{"https://OCSP.Example.COM:8080/path", "ocsp.example.com"},
		{"ocsp.sectigo.com", "ocsp.sectigo.com"},
		{"", ""},
		{"http://", ""},
	}
	for _, tt := range tests {
		if got := HostFromURL(tt.in); got != tt.want {
			t.Errorf("HostFromURL(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestStore(t *testing.T) {
	s := NewStore()
	c := testCert()
	s.Put("youtube.com", c)
	if got := s.Get("YOUTUBE.com."); got != c {
		t.Error("Get normalized host failed")
	}
	if got := s.Get("vimeo.com"); got != nil {
		t.Errorf("Get unknown host = %+v", got)
	}
}

// TestLiveTLSFetch mints a real CA and leaf, serves it over crypto/tls with
// a stapled OCSP blob, and checks FetchTLS recovers every measurement field
// from the wire.
func TestLiveTLSFetch(t *testing.T) {
	ca, err := NewTestCA("DigiCert SHA2 Secure Server CA", "digicert.com")
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.Issue(LeafSpec{
		Subject:     "dropbox.com",
		SANs:        []string{"dropbox.com", "*.dropbox.com"},
		OCSPServers: []string{"http://ocsp.digicert.com"},
		CDPs:        []string{"http://crl3.digicert.com/ssca-sha2-g6.crl"},
	})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("with staple", func(t *testing.T) {
		srv, addr, err := StartTLSServer(leaf, []byte("synthetic-ocsp-response"))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		got, err := FetchTLS(context.Background(), addr, "dropbox.com", ca.Pool())
		if err != nil {
			t.Fatal(err)
		}
		if got.IssuerCA != "DigiCert SHA2 Secure Server CA" || got.IssuerOrgDomain != "digicert.com" {
			t.Errorf("issuer = %q / %q", got.IssuerCA, got.IssuerOrgDomain)
		}
		if !got.Stapled {
			t.Error("staple not observed")
		}
		if len(got.OCSPServers) != 1 || HostFromURL(got.OCSPServers[0]) != "ocsp.digicert.com" {
			t.Errorf("OCSP servers = %v", got.OCSPServers)
		}
		if len(got.CRLDistributionPoints) != 1 || HostFromURL(got.CRLDistributionPoints[0]) != "crl3.digicert.com" {
			t.Errorf("CDPs = %v", got.CRLDistributionPoints)
		}
		if !got.MatchesSAN("www.dropbox.com") {
			t.Error("SAN list lost in transit")
		}
		checkFetchedLeaf(t, got)
	})

	t.Run("without staple", func(t *testing.T) {
		srv, addr, err := StartTLSServer(leaf, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		got, err := FetchTLS(context.Background(), addr, "dropbox.com", ca.Pool())
		if err != nil {
			t.Fatal(err)
		}
		if got.Stapled {
			t.Error("phantom staple observed")
		}
		checkFetchedLeaf(t, got)
	})
}

// checkFetchedLeaf checks the fields FetchTLS reads from the handshake's
// leaf besides the issuer and the revocation URLs: the subject, covered by
// its own SANs, and a validity window that ends after it starts.
func checkFetchedLeaf(t *testing.T, got *Certificate) {
	t.Helper()
	if got.Subject != "dropbox.com" {
		t.Errorf("subject = %q", got.Subject)
	}
	if !got.MatchesSAN(got.Subject) {
		t.Errorf("subject %q outside SANs %v", got.Subject, got.SANs)
	}
	if got.IssuerCA == "" {
		t.Error("empty issuer")
	}
	if !got.NotAfter.After(got.NotBefore) {
		t.Errorf("validity %v .. %v is empty or inverted", got.NotBefore, got.NotAfter)
	}
}

func TestFetchTLSRejectsUntrusted(t *testing.T) {
	ca, err := NewTestCA("Rogue CA", "rogue.example")
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.Issue(LeafSpec{Subject: "bank.com"})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, err := StartTLSServer(leaf, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	other, err := NewTestCA("Honest CA", "honest.example")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FetchTLS(context.Background(), addr, "bank.com", other.Pool()); err == nil {
		t.Error("handshake with untrusted chain succeeded")
	}
}
