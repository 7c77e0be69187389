// Livedns: the full real-protocol path — materialize a world, serve it over
// UDP/TCP DNS with internal/dnsserver, resolve through the wire with the
// stub resolver, and fetch a certificate from a live TLS handshake. This is
// the same measurement the bulk pipeline performs in-process, demonstrated
// over actual sockets.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"depscope/internal/certs"
	"depscope/internal/dnsmsg"
	"depscope/internal/dnsserver"
	"depscope/internal/ecosystem"
	"depscope/internal/resolver"
)

func main() {
	log.SetFlags(0)
	if err := livedns(context.Background(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// livedns serves a 500-site generated world over loopback DNS and TLS and
// writes what the wire-level measurement sees to w.
func livedns(ctx context.Context, w io.Writer) error {
	// Materialize a small world and serve its zones on a loopback port.
	u, err := ecosystem.Generate(ecosystem.Options{Scale: 500, Seed: 3})
	if err != nil {
		return err
	}
	world := ecosystem.Materialize(u, ecosystem.Y2020)
	srv := dnsserver.New(world.Zones, dnsserver.Config{Addr: "127.0.0.1:0"})
	addr, err := srv.Start()
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(w, "authoritative DNS for %d zones on udp+tcp %s\n\n", world.Zones.ZoneCount(), addr)

	// Resolve a site the way the paper's dig-based pipeline does — over the
	// wire.
	r := resolver.New(resolver.NewUDPTransport(addr))
	site := world.Sites[0]
	ns, err := r.NS(ctx, site)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "dig NS %s:\n", site)
	for _, h := range ns {
		fmt.Fprintf(w, "  %s\n", h)
	}
	soa, ok, err := r.SOA(ctx, site)
	if err != nil || !ok {
		return fmt.Errorf("SOA lookup failed: %v", err)
	}
	fmt.Fprintf(w, "dig SOA %s: master %s admin %s\n", site, soa.MName, soa.RName)
	chain, err := r.CNAMEChain(ctx, "www."+site)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "dig CNAME www.%s: %v\n\n", site, chain)

	// And the TLS half: serve a real certificate carrying OCSP/CDP URLs and
	// a stapled response, then extract the measurement view from the
	// handshake — the paper's OpenSSL step.
	ca, err := certs.NewTestCA("DigiCert SHA2 Secure Server CA", "digicert.com")
	if err != nil {
		return err
	}
	leaf, err := ca.Issue(certs.LeafSpec{
		Subject:     site,
		SANs:        []string{site, "*." + site},
		OCSPServers: []string{"http://ocsp.digicert.com"},
		CDPs:        []string{"http://crl.digicert.com/ca.crl"},
	})
	if err != nil {
		return err
	}
	tlsSrv, tlsAddr, err := certs.StartTLSServer(leaf, []byte("stapled-ocsp-response"))
	if err != nil {
		return err
	}
	defer tlsSrv.Close()
	cert, err := certs.FetchTLS(ctx, tlsAddr, site, ca.Pool())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "TLS fetch of %s via %s:\n", site, tlsAddr)
	fmt.Fprintf(w, "  issuer:   %s (%s)\n", cert.IssuerCA, cert.IssuerOrgDomain)
	fmt.Fprintf(w, "  OCSP:     %v\n", cert.OCSPServers)
	fmt.Fprintf(w, "  CDP:      %v\n", cert.CRLDistributionPoints)
	fmt.Fprintf(w, "  stapled:  %v\n", cert.Stapled)

	// Round-trip one raw wire message for good measure.
	q := dnsmsg.NewQuery(1, site, dnsmsg.TypeNS)
	wire, _ := q.Pack()
	fmt.Fprintf(w, "\nraw query packet: %d bytes on the wire, %d queries served\n", len(wire), srv.Queries())
	return nil
}
