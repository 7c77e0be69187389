// Package dnsserver serves a dnszone.Store authoritatively over UDP and TCP.
//
// It implements the transport behaviour a measurement client sees from real
// authoritative servers: 512-byte UDP answers with TC-bit truncation and a
// length-prefixed TCP fallback path (RFC 1035 §4.2). The depscope live
// pipeline and the digsim tool talk to this server with real packets.
package dnsserver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"time"

	"depscope/internal/dnsmsg"
	"depscope/internal/dnszone"
	"depscope/internal/telemetry"
)

// Server-side telemetry, aggregated across all server instances and served
// by depserver's /metrics endpoint. Per-rcode counters are pre-registered
// for every mnemonic the codec knows; an unknown code falls back to the
// "other" counter rather than minting unbounded names.
var (
	telUDPQueries = telemetry.Counter("dnsserver_udp_queries_total", "DNS queries served over UDP")
	telTCPQueries = telemetry.Counter("dnsserver_tcp_queries_total", "DNS queries served over TCP (AXFR included)")
	telMalformed  = telemetry.Counter("dnsserver_malformed_packets_total", "packets that failed to parse as DNS queries")
	telTruncated  = telemetry.Counter("dnsserver_truncated_responses_total", "UDP responses truncated with the TC bit set")
	telAXFR       = telemetry.Counter("dnsserver_axfr_total", "zone transfers served")

	telRCodes = func() map[dnsmsg.RCode]*telemetry.CounterMetric {
		m := make(map[dnsmsg.RCode]*telemetry.CounterMetric)
		for _, rc := range []dnsmsg.RCode{
			dnsmsg.RCodeSuccess, dnsmsg.RCodeFormatError, dnsmsg.RCodeServerFailure,
			dnsmsg.RCodeNameError, dnsmsg.RCodeNotImplemented, dnsmsg.RCodeRefused,
		} {
			m[rc] = telemetry.Counter(
				"dnsserver_rcode_"+strings.ToLower(rc.String())+"_total",
				"responses sent with rcode "+rc.String())
		}
		return m
	}()
	telRCodeOther = telemetry.Counter("dnsserver_rcode_other_total", "responses sent with an unrecognized rcode")
)

func countRCode(rc dnsmsg.RCode) {
	if c, ok := telRCodes[rc]; ok {
		c.Inc()
		return
	}
	telRCodeOther.Inc()
}

// maxUDPPayload is the classic DNS UDP limit; larger responses are
// truncated with TC set so clients retry over TCP. Clients advertising a
// larger size via EDNS(0) get up to maxEDNSPayload.
const (
	maxUDPPayload  = 512
	maxEDNSPayload = 4096
)

// Config controls server behaviour.
type Config struct {
	// Addr is the listen address for both UDP and TCP, e.g. "127.0.0.1:0".
	Addr string
	// ReadTimeout bounds a single TCP read; zero means 5s.
	ReadTimeout time.Duration
	// MaxTCPConns caps concurrent TCP connections; zero means 128.
	MaxTCPConns int
	// Logf, when set, receives one line per served query.
	Logf func(format string, args ...any)
}

// Server answers DNS queries from a zone store.
type Server struct {
	store *dnszone.Store
	cfg   Config

	udp *net.UDPConn
	tcp net.Listener

	mu      sync.Mutex
	closed  bool
	wg      sync.WaitGroup
	tcpSem  chan struct{}
	queries int64
}

// New creates a server for store. Call Start to begin listening.
func New(store *dnszone.Store, cfg Config) *Server {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = 5 * time.Second
	}
	if cfg.MaxTCPConns == 0 {
		cfg.MaxTCPConns = 128
	}
	return &Server{
		store:  store,
		cfg:    cfg,
		tcpSem: make(chan struct{}, cfg.MaxTCPConns),
	}
}

// Start binds the UDP socket and TCP listener and begins serving. The
// returned address carries the concrete port when Addr requested port 0;
// UDP and TCP share it.
func (s *Server) Start() (addr string, err error) {
	udpAddr, err := net.ResolveUDPAddr("udp", s.cfg.Addr)
	if err != nil {
		return "", fmt.Errorf("dnsserver: resolve %q: %w", s.cfg.Addr, err)
	}
	s.udp, err = net.ListenUDP("udp", udpAddr)
	if err != nil {
		return "", fmt.Errorf("dnsserver: listen udp: %w", err)
	}
	// Bind TCP on the same port the UDP socket got.
	actual := s.udp.LocalAddr().(*net.UDPAddr)
	s.tcp, err = net.Listen("tcp", actual.String())
	if err != nil {
		s.udp.Close()
		return "", fmt.Errorf("dnsserver: listen tcp: %w", err)
	}
	s.wg.Add(2)
	go s.serveUDP()
	go s.serveTCP()
	return actual.String(), nil
}

// Close stops the listeners and waits for in-flight handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	var first error
	if s.udp != nil {
		first = s.udp.Close()
	}
	if s.tcp != nil {
		if err := s.tcp.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.wg.Wait()
	return first
}

// Queries returns the number of queries served so far.
func (s *Server) Queries() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queries
}

func (s *Server) countQuery() {
	s.mu.Lock()
	s.queries++
	s.mu.Unlock()
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) serveUDP() {
	defer s.wg.Done()
	buf := make([]byte, 4096)
	for {
		n, peer, err := s.udp.ReadFromUDP(buf)
		if err != nil {
			if s.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			s.logf("dnsserver: udp read: %v", err)
			continue
		}
		pkt := make([]byte, n)
		copy(pkt, buf[:n])
		telUDPQueries.Inc()
		s.wg.Add(1)
		go func(pkt []byte, peer *net.UDPAddr) {
			defer s.wg.Done()
			resp, limit := s.respond(pkt)
			if resp == nil {
				return
			}
			bufp := dnsmsg.GetPacketBuf()
			out, err := s.packUDP(resp, limit, (*bufp)[:0])
			if err != nil {
				s.logf("dnsserver: pack: %v", err)
				dnsmsg.PutPacketBuf(bufp)
				return
			}
			if _, err := s.udp.WriteToUDP(out, peer); err != nil && !s.isClosed() {
				s.logf("dnsserver: udp write: %v", err)
			}
			*bufp = out[:0]
			dnsmsg.PutPacketBuf(bufp)
		}(pkt, peer)
	}
}

// packUDP serializes resp into dst (a recycled wire buffer), truncating to
// an empty answer with TC set when the packed form exceeds the client's
// payload limit.
func (s *Server) packUDP(resp *dnsmsg.Message, limit int, dst []byte) ([]byte, error) {
	out, err := resp.AppendPack(dst)
	if err != nil {
		return nil, err
	}
	if len(out) <= limit {
		return out, nil
	}
	telTruncated.Inc()
	trunc := &dnsmsg.Message{Header: resp.Header, Questions: resp.Questions}
	trunc.Header.Truncated = true
	return trunc.AppendPack(out[:0])
}

func (s *Server) serveTCP() {
	defer s.wg.Done()
	for {
		conn, err := s.tcp.Accept()
		if err != nil {
			if s.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			s.logf("dnsserver: accept: %v", err)
			continue
		}
		s.tcpSem <- struct{}{}
		s.wg.Add(1)
		go func(conn net.Conn) {
			defer func() {
				conn.Close()
				<-s.tcpSem
				s.wg.Done()
			}()
			s.serveTCPConn(conn)
		}(conn)
	}
}

// serveTCPConn handles length-prefixed messages until EOF or timeout,
// allowing clients to pipeline multiple queries per connection.
func (s *Server) serveTCPConn(conn net.Conn) {
	for {
		if err := conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout)); err != nil {
			return
		}
		var lenBuf [2]byte
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return
		}
		n := int(lenBuf[0])<<8 | int(lenBuf[1])
		pkt := make([]byte, n)
		if _, err := io.ReadFull(conn, pkt); err != nil {
			return
		}
		telTCPQueries.Inc()
		if query, err := dnsmsg.Unpack(pkt); err == nil &&
			!query.Header.Response && len(query.Questions) == 1 &&
			query.Questions[0].Type == dnsmsg.TypeAXFR {
			s.countQuery()
			if !s.serveAXFR(conn, query) {
				return
			}
			continue
		}
		resp, _ := s.respond(pkt)
		if resp == nil {
			return
		}
		if !writeTCPFrame(conn, resp, s.logf) {
			return
		}
	}
}

// writeTCPFrame packs and writes one length-prefixed message, reusing a
// pooled wire buffer for the whole frame (AppendPack keeps compression
// offsets relative to the message, so packing after the 2-byte prefix is
// safe).
func writeTCPFrame(conn net.Conn, m *dnsmsg.Message, logf func(string, ...any)) bool {
	bufp := dnsmsg.GetPacketBuf()
	defer dnsmsg.PutPacketBuf(bufp)
	frame, err := m.AppendPack(append((*bufp)[:0], 0, 0))
	if err != nil {
		logf("dnsserver: tcp pack: %v", err)
		return false
	}
	n := len(frame) - 2
	if n > 0xFFFF {
		return false
	}
	frame[0], frame[1] = byte(n>>8), byte(n)
	_, err = conn.Write(frame)
	*bufp = frame[:0]
	return err == nil
}

// axfrChunk bounds the records per AXFR message so each frame stays well
// under the 64 KiB TCP limit.
const axfrChunk = 100

// serveAXFR streams a zone transfer (RFC 5936): the zone's records bracketed
// by its SOA, split over as many messages as needed. Zones outside our
// authority are refused.
func (s *Server) serveAXFR(conn net.Conn, query *dnsmsg.Message) bool {
	q := query.Questions[0]
	zone := s.store.Zone(q.Name)
	if zone == nil {
		resp := query.Reply()
		resp.Header.Authoritative = true
		resp.Header.RCode = dnsmsg.RCodeRefused
		countRCode(resp.Header.RCode)
		return writeTCPFrame(conn, resp, s.logf)
	}
	telAXFR.Inc()
	countRCode(dnsmsg.RCodeSuccess)
	records := zone.AllRecords()
	records = append(records, zone.SOARecord()) // closing SOA
	s.logf("dnsserver: AXFR %s (%d records)", q.Name, len(records))
	for off := 0; off < len(records); off += axfrChunk {
		end := off + axfrChunk
		if end > len(records) {
			end = len(records)
		}
		resp := query.Reply()
		resp.Header.Authoritative = true
		resp.Answers = records[off:end]
		if !writeTCPFrame(conn, resp, s.logf) {
			return false
		}
	}
	return true
}

// respond parses a wire query and produces the wire response message plus
// the UDP payload limit the client advertised (EDNS0, else 512). A nil
// message means the packet was unparseable enough that no response should
// be sent (e.g. it was itself a response).
func (s *Server) respond(pkt []byte) (*dnsmsg.Message, int) {
	query, err := dnsmsg.Unpack(pkt)
	if err != nil {
		telMalformed.Inc()
		// Can't mirror an ID we couldn't parse; best effort FORMERR if we at
		// least have a header.
		if len(pkt) >= 2 {
			countRCode(dnsmsg.RCodeFormatError)
			return &dnsmsg.Message{Header: dnsmsg.Header{
				ID:       uint16(pkt[0])<<8 | uint16(pkt[1]),
				Response: true,
				RCode:    dnsmsg.RCodeFormatError,
			}}, maxUDPPayload
		}
		return nil, 0
	}
	if query.Header.Response {
		return nil, 0
	}
	limit := maxUDPPayload
	if size, ok := query.EDNS0(); ok {
		limit = int(size)
		if limit > maxEDNSPayload {
			limit = maxEDNSPayload
		}
		// Strip the OPT record so zone handling never sees it.
		kept := query.Additional[:0]
		for _, r := range query.Additional {
			if r.Type != dnsmsg.TypeOPT {
				kept = append(kept, r)
			}
		}
		query.Additional = kept
	}
	s.countQuery()
	resp := s.store.HandleQuery(query)
	countRCode(resp.Header.RCode)
	if limit > maxUDPPayload {
		// Echo EDNS0 with our own limit, per RFC 6891.
		resp.SetEDNS0(uint16(maxEDNSPayload))
	}
	if len(resp.Questions) > 0 {
		s.logf("dnsserver: %s %s -> %s (%d answers)",
			resp.Questions[0].Name, resp.Questions[0].Type, resp.Header.RCode, len(resp.Answers))
	}
	return resp, limit
}

// Run serves until ctx is cancelled, then closes the server. It is a
// convenience for command-line front ends.
func (s *Server) Run(ctx context.Context) error {
	addr, err := s.Start()
	if err != nil {
		return err
	}
	log.Printf("dnsserver: listening on udp+tcp %s (%d zones)", addr, s.store.ZoneCount())
	<-ctx.Done()
	return s.Close()
}
