package resolver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"depscope/internal/dnsmsg"
	"depscope/internal/dnsserver"
	"depscope/internal/dnszone"
)

func testStore() *dnszone.Store {
	s := dnszone.NewStore()

	site := dnszone.NewZone("twitter.test.", dnsmsg.SOAData{
		MName: "ns1.dyn.test.", RName: "hostmaster.twitter.test.", Serial: 2016,
	})
	site.MustAdd(dnsmsg.Record{Name: "twitter.test.", Type: dnsmsg.TypeNS, TTL: 300, Target: "ns1.dyn.test."})
	site.MustAdd(dnsmsg.Record{Name: "twitter.test.", Type: dnsmsg.TypeNS, TTL: 300, Target: "ns2.dyn.test."})
	site.MustAdd(dnsmsg.Record{Name: "twitter.test.", Type: dnsmsg.TypeA, TTL: 300, Addr: dnsmsg.IPv4(104, 244, 42, 1)})
	site.MustAdd(dnsmsg.Record{Name: "www.twitter.test.", Type: dnsmsg.TypeCNAME, TTL: 300, Target: "edge.fastcdn.test."})
	s.AddZone(site)

	dyn := dnszone.NewZone("dyn.test.", dnsmsg.SOAData{
		MName: "ns1.dyn.test.", RName: "ops.dyn.test.", Serial: 1,
	})
	dyn.MustAdd(dnsmsg.Record{Name: "ns1.dyn.test.", Type: dnsmsg.TypeA, TTL: 300, Addr: dnsmsg.IPv4(203, 0, 113, 1)})
	s.AddZone(dyn)

	cdn := dnszone.NewZone("fastcdn.test.", dnsmsg.SOAData{
		MName: "ns1.fastcdn.test.", RName: "ops.fastcdn.test.", Serial: 1,
	})
	cdn.MustAdd(dnsmsg.Record{Name: "edge.fastcdn.test.", Type: dnsmsg.TypeCNAME, TTL: 60, Target: "pop.fastcdn.test."})
	cdn.MustAdd(dnsmsg.Record{Name: "pop.fastcdn.test.", Type: dnsmsg.TypeA, TTL: 60, Addr: dnsmsg.IPv4(198, 51, 100, 2)})
	s.AddZone(cdn)
	return s
}

func TestNSLookup(t *testing.T) {
	r := New(ZoneDirect{testStore()})
	ns, err := r.NS(context.Background(), "twitter.test")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ns1.dyn.test.", "ns2.dyn.test."}
	if !reflect.DeepEqual(ns, want) {
		t.Errorf("NS = %v, want %v", ns, want)
	}
}

func TestSOAFromAnswerAndAuthority(t *testing.T) {
	r := New(ZoneDirect{testStore()})
	ctx := context.Background()

	// Apex: SOA in the answer section.
	soa, ok, err := r.SOA(ctx, "twitter.test")
	if err != nil || !ok {
		t.Fatalf("apex SOA: ok=%v err=%v", ok, err)
	}
	if soa.MName != "ns1.dyn.test." {
		t.Errorf("apex SOA MName = %q", soa.MName)
	}

	// Host below apex: NODATA, SOA comes from the authority section — this
	// is how the paper's pipeline learns the authority of a nameserver host.
	soa, ok, err = r.SOA(ctx, "ns1.dyn.test")
	if err != nil || !ok {
		t.Fatalf("host SOA: ok=%v err=%v", ok, err)
	}
	if soa.RName != "ops.dyn.test." {
		t.Errorf("host SOA RName = %q", soa.RName)
	}

	// NXDOMAIN name still yields the governing zone's SOA.
	soa, ok, err = r.SOA(ctx, "nothere.dyn.test")
	if err != nil || !ok {
		t.Fatalf("nxdomain SOA: ok=%v err=%v", ok, err)
	}
	if soa.MName != "ns1.dyn.test." {
		t.Errorf("nxdomain SOA MName = %q", soa.MName)
	}

	// Entirely outside authority: SERVFAIL path -> error.
	if _, _, err := r.SOA(ctx, "outside.example"); err == nil {
		t.Error("SOA outside authority should error")
	}
}

func TestCNAMEChain(t *testing.T) {
	r := New(ZoneDirect{testStore()})
	chain, err := r.CNAMEChain(context.Background(), "www.twitter.test")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"www.twitter.test.", "edge.fastcdn.test.", "pop.fastcdn.test."}
	if !reflect.DeepEqual(chain, want) {
		t.Errorf("chain = %v, want %v", chain, want)
	}
}

func TestCNAMEChainLoopDetected(t *testing.T) {
	s := dnszone.NewStore()
	z := dnszone.NewZone("loop.test.", dnsmsg.SOAData{MName: "ns.loop.test.", RName: "ops.loop.test."})
	z.MustAdd(dnsmsg.Record{Name: "a.loop.test.", Type: dnsmsg.TypeCNAME, TTL: 1, Target: "b.loop.test."})
	z.MustAdd(dnsmsg.Record{Name: "b.loop.test.", Type: dnsmsg.TypeCNAME, TTL: 1, Target: "a.loop.test."})
	s.AddZone(z)
	r := New(ZoneDirect{s})
	if _, err := r.CNAMEChain(context.Background(), "a.loop.test"); err == nil {
		t.Error("CNAME loop not detected")
	}
}

// TestAddrsFollowsCNAME checks an A lookup of a CNAME'd host answers with
// the chain and the address at its end.
func TestAddrsFollowsCNAME(t *testing.T) {
	r := New(ZoneDirect{testStore()})
	res, err := r.Lookup(context.Background(), "www.twitter.test", dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	var cnames, addrs []string
	for _, a := range res.Answers {
		switch a.Type {
		case dnsmsg.TypeCNAME:
			cnames = append(cnames, a.Target)
		case dnsmsg.TypeA:
			addrs = append(addrs, fmt.Sprintf("%d.%d.%d.%d", a.Addr[0], a.Addr[1], a.Addr[2], a.Addr[3]))
		}
	}
	if !reflect.DeepEqual(cnames, []string{"edge.fastcdn.test.", "pop.fastcdn.test."}) {
		t.Errorf("cnames = %v", cnames)
	}
	if !reflect.DeepEqual(addrs, []string{"198.51.100.2"}) {
		t.Errorf("addrs = %v", addrs)
	}
}

// cachedStore returns a resolver over the test store behind a wrapping
// transport: a resolver over ZoneDirect itself has no cache, so the cache's
// semantics are pinned through a transport that merely wraps it.
func cachedStore(opts ...Option) *Resolver {
	return New(&countingTransport{inner: ZoneDirect{testStore()}}, opts...)
}

func TestCacheHitAndExpiry(t *testing.T) {
	clock := time.Unix(1_600_000_000, 0)
	r := cachedStore(WithClock(func() time.Time { return clock }))
	ctx := context.Background()

	if _, err := r.NS(ctx, "twitter.test"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.NS(ctx, "twitter.test"); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.Queries != 2 || s.Hits != 1 {
		t.Fatalf("stats after repeat: %+v", s)
	}
	if rate := r.Stats().HitRate(); rate != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", rate)
	}

	// Advance past the 300s record TTL: next lookup misses.
	clock = clock.Add(301 * time.Second)
	if _, err := r.NS(ctx, "twitter.test"); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.Queries != 3 || s.Hits != 1 {
		t.Fatalf("stats after expiry: %+v", s)
	}
}

func TestNegativeCache(t *testing.T) {
	clock := time.Unix(1_600_000_000, 0)
	r := cachedStore(WithClock(func() time.Time { return clock }))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		res, err := r.Lookup(ctx, "gone.twitter.test", dnsmsg.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		if res.RCode != dnsmsg.RCodeNameError {
			t.Fatal("expected NXDOMAIN")
		}
	}
	if s := r.Stats(); s.Hits != 2 {
		t.Fatalf("negative cache: %+v", s)
	}
	clock = clock.Add(negativeTTL + time.Second)
	if _, err := r.Lookup(ctx, "gone.twitter.test", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.Hits != 2 {
		t.Fatalf("negative entry served past negativeTTL: %+v", s)
	}
}

func TestFlushCache(t *testing.T) {
	r := cachedStore()
	ctx := context.Background()
	r.NS(ctx, "twitter.test")
	r.FlushCache()
	r.NS(ctx, "twitter.test")
	if s := r.Stats(); s.Hits != 0 {
		t.Fatalf("hits after flush: %+v", s)
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("idle HitRate should be 0")
	}
}

// TestUDPTransportMatchesZoneDirect cross-checks the real-socket path against
// the in-process path on identical queries, per the DESIGN.md contract.
func TestUDPTransportMatchesZoneDirect(t *testing.T) {
	store := testStore()
	srv := dnsserver.New(store, dnsserver.Config{})
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	live := New(NewUDPTransport(addr))
	direct := New(ZoneDirect{store})
	ctx := context.Background()

	queries := []struct {
		name  string
		qtype dnsmsg.Type
	}{
		{"twitter.test.", dnsmsg.TypeNS},
		{"twitter.test.", dnsmsg.TypeSOA},
		{"www.twitter.test.", dnsmsg.TypeA},
		{"www.twitter.test.", dnsmsg.TypeCNAME},
		{"ns1.dyn.test.", dnsmsg.TypeSOA},
		{"missing.twitter.test.", dnsmsg.TypeA},
	}
	for _, q := range queries {
		lr, lerr := live.Lookup(ctx, q.name, q.qtype)
		dr, derr := direct.Lookup(ctx, q.name, q.qtype)
		if (lerr == nil) != (derr == nil) {
			t.Fatalf("%s %s: live err=%v direct err=%v", q.name, q.qtype, lerr, derr)
		}
		if lerr != nil {
			continue
		}
		if lr.RCode != dr.RCode {
			t.Errorf("%s %s: rcode live=%v direct=%v", q.name, q.qtype, lr.RCode, dr.RCode)
		}
		if !reflect.DeepEqual(lr.Answers, dr.Answers) {
			t.Errorf("%s %s: answers differ\nlive:   %+v\ndirect: %+v", q.name, q.qtype, lr.Answers, dr.Answers)
		}
	}
	if srv.Queries() == 0 {
		t.Error("live path did not reach the server")
	}
}

func TestUDPTransportTruncationFallsBackToTCP(t *testing.T) {
	store := dnszone.NewStore()
	z := dnszone.NewZone("big.test.", dnsmsg.SOAData{MName: "ns.big.test.", RName: "ops.big.test."})
	for i := 0; i < 40; i++ {
		z.MustAdd(dnsmsg.Record{
			Name: "txt.big.test.", Type: dnsmsg.TypeTXT, TTL: 60,
			Data: &dnsmsg.Rdata{TXT: []string{fmt.Sprintf("record-%02d-padding-padding-padding", i)}},
		})
	}
	store.AddZone(z)
	srv := dnsserver.New(store, dnsserver.Config{})
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	r := New(NewUDPTransport(addr))
	res, err := r.Lookup(context.Background(), "txt.big.test.", dnsmsg.TypeTXT)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 40 {
		t.Fatalf("got %d TXT answers via fallback, want 40", len(res.Answers))
	}
}

// echoServer listens on one loopback port for UDP and TCP. Every UDP query
// is answered with its own bytes plus the QR and TC bits, sending the client
// to TCP, where the query is echoed back unchanged (QR clear).
func echoServer(t *testing.T) string {
	t.Helper()
	var (
		pc  net.PacketConn
		ln  net.Listener
		err error
	)
	for i := 0; i < 10 && ln == nil; i++ {
		if pc, err = net.ListenPacket("udp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		if ln, err = net.Listen("tcp", pc.LocalAddr().String()); err != nil {
			pc.Close() // the port is taken for TCP; try another
		}
	}
	if ln == nil {
		t.Fatalf("no port free for both UDP and TCP: %v", err)
	}
	t.Cleanup(func() { pc.Close(); ln.Close() })
	go func() {
		buf := make([]byte, 4096)
		for {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			buf[2] |= 0x80 | 0x02 // QR, TC
			pc.WriteTo(buf[:n], from)
		}
	}()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var lenBuf [2]byte
				if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
					return
				}
				frame := make([]byte, 2+(int(lenBuf[0])<<8|int(lenBuf[1])))
				copy(frame, lenBuf[:])
				if _, err := io.ReadFull(conn, frame[2:]); err != nil {
					return
				}
				conn.Write(frame)
			}()
		}
	}()
	return pc.LocalAddr().String()
}

// TestTCPFallbackRejectsEchoedQuery: the TCP fallback applies the same
// response check as UDP, so a peer that echoes the query back is an error,
// not a NODATA answer to cache.
func TestTCPFallbackRejectsEchoedQuery(t *testing.T) {
	tr := NewUDPTransport(echoServer(t))
	tr.Retries = 0
	r := New(tr)
	for i := 0; i < 2; i++ {
		res, err := r.Lookup(context.Background(), "twitter.test.", dnsmsg.TypeNS)
		if !errors.Is(err, ErrNotResp) {
			t.Fatalf("lookup %d: got %+v, %v; want ErrNotResp", i, res, err)
		}
	}
	if s := r.Stats(); s.Hits != 0 {
		t.Fatalf("an echoed query was cached: %+v", s)
	}
}

func TestUDPTransportContextCancel(t *testing.T) {
	// A local UDP socket that never answers is a reliable blackhole.
	hole, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	tr := NewUDPTransport(hole.LocalAddr().String())
	tr.Timeout = 5 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	r := New(tr)
	start := time.Now()
	_, err = r.Lookup(ctx, "x.test.", dnsmsg.TypeA)
	if err == nil {
		t.Fatal("expected error from blackhole")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatalf("context deadline not honored: took %v", time.Since(start))
	}
}

func BenchmarkZoneDirectLookupCached(b *testing.B) {
	r := cachedStore()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.NS(ctx, "twitter.test"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUDPRoundTrip(b *testing.B) {
	srv := dnsserver.New(testStore(), dnsserver.Config{})
	addr, err := srv.Start()
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	r := New(NewUDPTransport(addr))
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.FlushCache()
		if _, err := r.NS(ctx, "twitter.test"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEDNS0LargeAnswerOverUDP(t *testing.T) {
	store := dnszone.NewStore()
	z := dnszone.NewZone("edns.test.", dnsmsg.SOAData{MName: "ns.edns.test.", RName: "ops.edns.test."})
	for i := 0; i < 40; i++ {
		z.MustAdd(dnsmsg.Record{
			Name: "txt.edns.test.", Type: dnsmsg.TypeTXT, TTL: 60,
			Data: &dnsmsg.Rdata{TXT: []string{fmt.Sprintf("record-%02d-padding-padding-padding", i)}},
		})
	}
	store.AddZone(z)
	srv := dnsserver.New(store, dnsserver.Config{})
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Default transport advertises EDNS0: the big RRset must arrive in one
	// UDP exchange (no TCP fallback).
	r := New(NewUDPTransport(addr))
	res, err := r.Lookup(context.Background(), "txt.edns.test.", dnsmsg.TypeTXT)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 40 {
		t.Fatalf("got %d answers, want 40", len(res.Answers))
	}

	// With EDNS disabled the same lookup must still succeed via TCP.
	tr := NewUDPTransport(addr)
	tr.AdvertiseUDPSize = 0
	r2 := New(tr)
	res2, err := r2.Lookup(context.Background(), "txt.edns.test.", dnsmsg.TypeTXT)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Answers) != 40 {
		t.Fatalf("classic path got %d answers, want 40", len(res2.Answers))
	}
}
