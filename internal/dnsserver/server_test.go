package dnsserver

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"depscope/internal/dnsmsg"
	"depscope/internal/dnszone"
	"depscope/internal/resolver"
)

// resolverAXFR adapts resolver.AXFR for the tests here.
func resolverAXFR(t *testing.T, addr, zone string) ([]dnsmsg.Record, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return resolver.AXFR(ctx, addr, zone)
}

func testStore() *dnszone.Store {
	s := dnszone.NewStore()
	z := dnszone.NewZone("example.com.", dnsmsg.SOAData{
		MName: "ns1.provider.net.", RName: "hostmaster.example.com.", Serial: 1,
	})
	z.MustAdd(dnsmsg.Record{Name: "example.com.", Type: dnsmsg.TypeNS, TTL: 60, Target: "ns1.provider.net."})
	z.MustAdd(dnsmsg.Record{Name: "example.com.", Type: dnsmsg.TypeA, TTL: 60, Addr: dnsmsg.IPv4(192, 0, 2, 1)})
	for i := 0; i < 40; i++ {
		z.MustAdd(dnsmsg.Record{
			Name: fmt.Sprintf("big.example.com."),
			Type: dnsmsg.TypeTXT, TTL: 60,
			Data: &dnsmsg.Rdata{TXT: []string{fmt.Sprintf("record-%02d-padding-padding-padding", i)}},
		})
	}
	s.AddZone(z)
	return s
}

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := New(testStore(), Config{})
	addr, err := srv.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func udpExchange(t *testing.T, addr string, q *dnsmsg.Message) *dnsmsg.Message {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnsmsg.Unpack(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestUDPQuery(t *testing.T) {
	_, addr := startServer(t)
	resp := udpExchange(t, addr, dnsmsg.NewQuery(42, "example.com.", dnsmsg.TypeA))
	if resp.Header.ID != 42 || !resp.Header.Response || !resp.Header.Authoritative {
		t.Fatalf("header: %+v", resp.Header)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Type != dnsmsg.TypeA {
		t.Fatalf("answers: %+v", resp.Answers)
	}
}

func TestUDPNXDomain(t *testing.T) {
	_, addr := startServer(t)
	resp := udpExchange(t, addr, dnsmsg.NewQuery(1, "missing.example.com.", dnsmsg.TypeA))
	if resp.Header.RCode != dnsmsg.RCodeNameError {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
	if len(resp.Authority) != 1 || resp.Authority[0].Type != dnsmsg.TypeSOA {
		t.Fatalf("authority: %+v", resp.Authority)
	}
}

func TestUDPTruncationAndTCPFallback(t *testing.T) {
	_, addr := startServer(t)
	// The big TXT RRset exceeds 512 bytes: UDP must truncate.
	resp := udpExchange(t, addr, dnsmsg.NewQuery(7, "big.example.com.", dnsmsg.TypeTXT))
	if !resp.Header.Truncated {
		t.Fatalf("expected TC bit, got %+v with %d answers", resp.Header, len(resp.Answers))
	}
	if len(resp.Answers) != 0 {
		t.Fatalf("truncated response should have empty answer section")
	}

	// Same query over TCP must return the full RRset.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	wire, _ := dnsmsg.NewQuery(7, "big.example.com.", dnsmsg.TypeTXT).Pack()
	frame := append([]byte{byte(len(wire) >> 8), byte(len(wire))}, wire...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, 2)
	if _, err := readFull(conn, hdr); err != nil {
		t.Fatal(err)
	}
	n := int(hdr[0])<<8 | int(hdr[1])
	body := make([]byte, n)
	if _, err := readFull(conn, body); err != nil {
		t.Fatal(err)
	}
	full, err := dnsmsg.Unpack(body)
	if err != nil {
		t.Fatal(err)
	}
	if full.Header.Truncated || len(full.Answers) != 40 {
		t.Fatalf("tcp response: tc=%v answers=%d", full.Header.Truncated, len(full.Answers))
	}
}

func readFull(conn net.Conn, b []byte) (int, error) {
	total := 0
	for total < len(b) {
		n, err := conn.Read(b[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func TestTCPPipelining(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	for i := 0; i < 5; i++ {
		wire, _ := dnsmsg.NewQuery(uint16(i), "example.com.", dnsmsg.TypeNS).Pack()
		frame := append([]byte{byte(len(wire) >> 8), byte(len(wire))}, wire...)
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		hdr := make([]byte, 2)
		if _, err := readFull(conn, hdr); err != nil {
			t.Fatal(err)
		}
		body := make([]byte, int(hdr[0])<<8|int(hdr[1]))
		if _, err := readFull(conn, body); err != nil {
			t.Fatal(err)
		}
		resp, err := dnsmsg.Unpack(body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.ID != uint16(i) {
			t.Fatalf("query %d: response ID %d", i, resp.Header.ID)
		}
	}
}

func TestMalformedPacketGetsFormErr(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	// Valid-looking header with QDCOUNT=1 but no question bytes.
	pkt := make([]byte, 12)
	pkt[0], pkt[1] = 0xAB, 0xCD
	pkt[5] = 1
	if _, err := conn.Write(pkt); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnsmsg.Unpack(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnsmsg.RCodeFormatError || resp.Header.ID != 0xABCD {
		t.Fatalf("got %+v", resp.Header)
	}
}

func TestResponsePacketsIgnored(t *testing.T) {
	srv, addr := startServer(t)
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := dnsmsg.NewQuery(9, "example.com.", dnsmsg.TypeA)
	q.Header.Response = true
	wire, _ := q.Pack()
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	buf := make([]byte, 512)
	if n, err := conn.Read(buf); err == nil {
		t.Fatalf("server replied to a response packet (%d bytes)", n)
	}
	if srv.Queries() != 0 {
		t.Errorf("queries counted for response packet: %d", srv.Queries())
	}
}

func TestConcurrentUDPClients(t *testing.T) {
	srv, addr := startServer(t)
	const clients = 32
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id uint16) {
			defer wg.Done()
			conn, err := net.Dial("udp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(3 * time.Second))
			for i := 0; i < 20; i++ {
				wire, _ := dnsmsg.NewQuery(id, "example.com.", dnsmsg.TypeNS).Pack()
				if _, err := conn.Write(wire); err != nil {
					errs <- err
					return
				}
				buf := make([]byte, 1024)
				n, err := conn.Read(buf)
				if err != nil {
					errs <- err
					return
				}
				resp, err := dnsmsg.Unpack(buf[:n])
				if err != nil {
					errs <- err
					return
				}
				if resp.Header.ID != id {
					errs <- fmt.Errorf("client %d got ID %d", id, resp.Header.ID)
					return
				}
			}
		}(uint16(c))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := srv.Queries(); got != clients*20 {
		t.Errorf("served %d queries, want %d", got, clients*20)
	}
}

func TestCloseIdempotentAndRunCancel(t *testing.T) {
	srv := New(testStore(), Config{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestEDNS0AvoidsTruncation(t *testing.T) {
	_, addr := startServer(t)
	q := dnsmsg.NewQuery(9, "big.example.com.", dnsmsg.TypeTXT)
	q.SetEDNS0(4096)
	resp := udpExchange(t, addr, q)
	if resp.Header.Truncated {
		t.Fatal("EDNS0 query still truncated")
	}
	if len(resp.Answers) != 40 {
		t.Fatalf("got %d answers over UDP with EDNS0, want 40", len(resp.Answers))
	}
	// The server echoes an OPT record with its own limit.
	if size, ok := resp.EDNS0(); !ok || size != 4096 {
		t.Fatalf("response EDNS0 = %d, %v", size, ok)
	}
}

func TestAXFRTransfer(t *testing.T) {
	_, addr := startServer(t)
	records, err := resolverAXFR(t, addr, "example.com.")
	if err != nil {
		t.Fatal(err)
	}
	if len(records) < 4 {
		t.Fatalf("transfer too small: %d records", len(records))
	}
	if records[0].Type != dnsmsg.TypeSOA || records[len(records)-1].Type != dnsmsg.TypeSOA {
		t.Fatalf("transfer not SOA-bracketed: first %v last %v",
			records[0].Type, records[len(records)-1].Type)
	}
	// All 40 big TXT records plus NS and A must arrive.
	txt := 0
	for _, r := range records {
		if r.Type == dnsmsg.TypeTXT {
			txt++
		}
	}
	if txt != 40 {
		t.Fatalf("TXT records transferred = %d, want 40", txt)
	}
}

func TestAXFRUnknownZoneRefused(t *testing.T) {
	_, addr := startServer(t)
	if _, err := resolverAXFR(t, addr, "not-ours.test."); err == nil {
		t.Fatal("AXFR of foreign zone succeeded")
	}
}

// TestDistinctQueryNamesLeaveNoHeap sends many distinct query names
// through the server's query path (decode, answer, encode) and requires
// the live heap to return to its baseline: nothing a client sends may be
// retained past its exchange. A process-wide name table in the decoder
// used to keep every name ever decoded (about 85 bytes each).
func TestDistinctQueryNamesLeaveNoHeap(t *testing.T) {
	const names = 50000
	srv := New(testStore(), Config{})
	buf := make([]byte, 0, 512)
	exchange := func(i int) {
		q := dnsmsg.NewQuery(uint16(i), fmt.Sprintf("client-%d.probe-%d.example.com.", i, i*7919), dnsmsg.TypeA)
		pkt, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		resp, limit := srv.respond(pkt)
		if resp == nil || resp.Header.RCode != dnsmsg.RCodeNameError {
			t.Fatalf("query %d: unexpected response %+v", i, resp)
		}
		if buf, err = srv.packUDP(resp, limit, buf[:0]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // warm pools and lazily built state
		exchange(i)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < names; i++ {
		exchange(names + i)
	}
	after := heap()
	if after > before && after-before > 1<<20 {
		t.Fatalf("%d distinct query names left %d bytes of live heap behind (%.1f per name)",
			names, after-before, float64(after-before)/names)
	}
}
