// Package resolver implements a DNS stub resolver over pluggable
// transports and the high-level lookups the measurement pipeline needs (NS
// sets, SOA of authority, CNAME chains, addresses).
//
// Two transports are provided. UDPTransport speaks the real protocol against
// a server address (random transaction IDs from crypto/rand, retry, and
// RFC 1035 TCP fallback on truncation), and a resolver over it keeps a TTL
// cache with singleflight miss deduplication behind one mutex. ZoneDirect
// consults a dnszone.Store in-process with identical semantics; a resolver
// over it asks the store on every lookup, with no cache. Tests cross-check
// that the two paths return the same results.
//
// Observability: every resolver keeps its own Stats (queries, cache hits —
// the per-run numbers surfaced in measure.Results.Diagnostics) in atomic
// counters, and feeds the process-wide telemetry registry:
// resolver_queries_total for every lookup, and for a cached resolver
// resolver_cache_hits_total, resolver_cache_misses_total and a per-rrtype
// exchange-latency histogram (resolver_lookup_ns_seconds etc.). See
// docs/observability.md for the full catalog.
package resolver

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"depscope/internal/dnsmsg"
	"depscope/internal/dnszone"
)

// Transport sends one DNS query and returns the response message.
type Transport interface {
	Exchange(ctx context.Context, query *dnsmsg.Message) (*dnsmsg.Message, error)
}

// Transport errors.
var (
	ErrIDMismatch = errors.New("resolver: response ID does not match query")
	ErrNotResp    = errors.New("resolver: message is not a response")
)

// UDPTransport exchanges messages with a DNS server over UDP, retrying on
// timeout and falling back to TCP when the response is truncated.
type UDPTransport struct {
	// Addr is the server address, host:port.
	Addr string
	// Timeout bounds each network attempt; zero means 2s.
	Timeout time.Duration
	// Retries is the number of additional UDP attempts; zero means 2.
	Retries int
	// AdvertiseUDPSize is the EDNS(0) payload size offered in queries;
	// zero disables EDNS entirely (classic 512-byte behaviour).
	AdvertiseUDPSize uint16
}

// NewUDPTransport returns a transport for the server at addr, advertising a
// 4096-byte EDNS(0) payload.
func NewUDPTransport(addr string) *UDPTransport {
	return &UDPTransport{
		Addr:             addr,
		Timeout:          2 * time.Second,
		Retries:          2,
		AdvertiseUDPSize: 4096,
	}
}

// randomID draws an unpredictable transaction ID, as RFC 5452 asks.
func randomID() (uint16, error) {
	var b [2]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("resolver: transaction id: %w", err)
	}
	return binary.BigEndian.Uint16(b[:]), nil
}

// checkResponse accepts msg only as the response to the query with
// transaction ID id: the ID must match and the QR bit must be set.
func checkResponse(msg *dnsmsg.Message, id uint16) error {
	if msg.Header.ID != id {
		return ErrIDMismatch
	}
	if !msg.Header.Response {
		return ErrNotResp
	}
	return nil
}

// Exchange implements Transport. The query's ID is overwritten with a random
// transaction ID; a reply is accepted only if checkResponse passes.
func (t *UDPTransport) Exchange(ctx context.Context, query *dnsmsg.Message) (*dnsmsg.Message, error) {
	id, err := randomID()
	if err != nil {
		return nil, err
	}
	q := *query
	q.Header.ID = id
	if t.AdvertiseUDPSize > 0 {
		q.Additional = append([]dnsmsg.Record(nil), q.Additional...)
		q.SetEDNS0(t.AdvertiseUDPSize)
	}
	bufp := dnsmsg.GetPacketBuf()
	wire, err := q.AppendPack((*bufp)[:0])
	if err != nil {
		dnsmsg.PutPacketBuf(bufp)
		return nil, err
	}
	// The response never aliases the query wire, so the buffer can be
	// recycled as soon as the exchange (including retries) is over.
	defer func() {
		*bufp = wire[:0]
		dnsmsg.PutPacketBuf(bufp)
	}()
	timeout := t.Timeout
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	attempts := t.Retries + 1
	var lastErr error
	for i := 0; i < attempts; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		resp, err := t.udpOnce(ctx, wire, q.Header.ID, timeout)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Header.Truncated {
			return t.tcpOnce(ctx, wire, q.Header.ID, timeout)
		}
		return resp, nil
	}
	return nil, fmt.Errorf("resolver: udp exchange with %s failed after %d attempts: %w", t.Addr, attempts, lastErr)
}

func (t *UDPTransport) udpOnce(ctx context.Context, wire []byte, id uint16, timeout time.Duration) (*dnsmsg.Message, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "udp", t.Addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	deadline := time.Now().Add(timeout)
	if ctxDeadline, ok := ctx.Deadline(); ok && ctxDeadline.Before(deadline) {
		deadline = ctxDeadline
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if _, err := conn.Write(wire); err != nil {
		return nil, err
	}
	buf := make([]byte, 4096)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return nil, err
		}
		resp, err := dnsmsg.Unpack(buf[:n])
		if err != nil {
			continue // garbled datagram; keep waiting until deadline
		}
		switch err := checkResponse(resp, id); err {
		case ErrIDMismatch:
			continue // stale or spoofed; ignore
		case nil:
			return resp, nil
		default:
			return nil, err
		}
	}
}

func (t *UDPTransport) tcpOnce(ctx context.Context, wire []byte, id uint16, timeout time.Duration) (*dnsmsg.Message, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", t.Addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	deadline := time.Now().Add(timeout)
	if ctxDeadline, ok := ctx.Deadline(); ok && ctxDeadline.Before(deadline) {
		deadline = ctxDeadline
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	frame := make([]byte, 2+len(wire))
	frame[0], frame[1] = byte(len(wire)>>8), byte(len(wire))
	copy(frame[2:], wire)
	if _, err := conn.Write(frame); err != nil {
		return nil, err
	}
	var lenBuf [2]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		return nil, err
	}
	n := int(lenBuf[0])<<8 | int(lenBuf[1])
	buf := make([]byte, n)
	if _, err := io.ReadFull(conn, buf); err != nil {
		return nil, err
	}
	resp, err := dnsmsg.Unpack(buf)
	if err != nil {
		return nil, err
	}
	if err := checkResponse(resp, id); err != nil {
		return nil, err
	}
	return resp, nil
}

// ZoneDirect is a Transport that answers from a dnszone.Store in-process.
// It produces byte-identical message semantics to a dnsserver fronting the
// same store, without sockets.
type ZoneDirect struct {
	Store *dnszone.Store
}

// Exchange implements Transport.
func (z ZoneDirect) Exchange(_ context.Context, query *dnsmsg.Message) (*dnsmsg.Message, error) {
	resp := new(dnsmsg.Message)
	z.Store.AnswerInto(query, resp)
	return resp, nil
}

// AXFR performs a zone transfer (RFC 5936) for zone from the server at
// addr over TCP, returning all records including the bracketing SOAs. The
// transfer ends when the closing SOA arrives.
func AXFR(ctx context.Context, addr, zone string) ([]dnsmsg.Record, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("resolver: axfr dial %s: %w", addr, err)
	}
	defer conn.Close()
	deadline := time.Now().Add(30 * time.Second)
	if ctxDeadline, ok := ctx.Deadline(); ok && ctxDeadline.Before(deadline) {
		deadline = ctxDeadline
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}

	id, err := randomID()
	if err != nil {
		return nil, err
	}
	q := dnsmsg.NewQuery(id, zone, dnsmsg.TypeAXFR)
	q.Header.RecursionDesired = false
	wire, err := q.Pack()
	if err != nil {
		return nil, err
	}
	frame := make([]byte, 2+len(wire))
	frame[0], frame[1] = byte(len(wire)>>8), byte(len(wire))
	copy(frame[2:], wire)
	if _, err := conn.Write(frame); err != nil {
		return nil, err
	}

	var records []dnsmsg.Record
	soaSeen := 0
	for soaSeen < 2 {
		var lenBuf [2]byte
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return nil, fmt.Errorf("resolver: axfr read: %w", err)
		}
		n := int(lenBuf[0])<<8 | int(lenBuf[1])
		buf := make([]byte, n)
		if _, err := io.ReadFull(conn, buf); err != nil {
			return nil, fmt.Errorf("resolver: axfr read body: %w", err)
		}
		resp, err := dnsmsg.Unpack(buf)
		if err != nil {
			return nil, err
		}
		if resp.Header.RCode != dnsmsg.RCodeSuccess {
			return nil, fmt.Errorf("resolver: axfr %s: %s", zone, resp.Header.RCode)
		}
		if resp.Header.ID != q.Header.ID {
			return nil, ErrIDMismatch
		}
		for _, r := range resp.Answers {
			records = append(records, r)
			if r.Type == dnsmsg.TypeSOA {
				soaSeen++
				if soaSeen == 2 {
					break
				}
			}
		}
		if len(resp.Answers) == 0 {
			return nil, fmt.Errorf("resolver: axfr %s: empty message before closing SOA", zone)
		}
	}
	return records, nil
}
