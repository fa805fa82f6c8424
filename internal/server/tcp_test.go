package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testkit"
	"repro/internal/wire"
)

// responseQueueCap is the bound on a connection's reply queue, which
// the serving loop inherits from its wire.Stream.
const responseQueueCap = wire.StreamQueueCap

// startTCP brings up the raw-TCP decision plane on loopback and
// returns the TCPServer plus its address.
func startTCP(t testing.TB, s *Server, cfg TCPConfig) (*TCPServer, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveTCP(t, s, cfg, ln)
}

// countingConn is the server's end of a connection, counting what
// serveConn does to it: Write calls, the largest single Write, and
// SetReadDeadline calls. The counters move before the call they count,
// so a client that has seen a reply sees its write counted.
type countingConn struct {
	net.Conn
	writes, maxWrite, readDeadlines atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	if n := int64(len(b)); n > c.maxWrite.Load() {
		c.maxWrite.Store(n) // one writer per connection
	}
	return c.Conn.Write(b)
}

func (c *countingConn) SetReadDeadline(t time.Time) error {
	c.readDeadlines.Add(1)
	return c.Conn.SetReadDeadline(t)
}

// countingListener hands every accepted connection to the server
// wrapped, and to the test on accepted.
type countingListener struct {
	net.Listener
	accepted chan *countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: nc}
	l.accepted <- cc
	return cc, nil
}

// startCountingTCP is startTCP over a countingListener; the channel
// yields the server side of each connection in accept order.
func startCountingTCP(t testing.TB, s *Server, cfg TCPConfig) (*TCPServer, string, <-chan *countingConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Buffered past any test's connection count: Accept never waits on the test.
	cl := &countingListener{Listener: ln, accepted: make(chan *countingConn, 16)}
	ts, addr := serveTCP(t, s, cfg, cl)
	return ts, addr, cl.accepted
}

func serveTCP(t testing.TB, s *Server, cfg TCPConfig, ln net.Listener) (*TCPServer, string) {
	t.Helper()
	ts := NewTCP(s, cfg)
	done := make(chan error, 1)
	go func() { done <- ts.Serve(ln) }()
	t.Cleanup(func() {
		ts.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ts, ln.Addr().String()
}

// dialStream dials the TCP plane and completes the hello exchange.
func dialStream(t testing.TB, addr string) (net.Conn, *wire.Stream) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	st := wire.NewStream(nc)
	if err := st.WriteClientHello(wire.EncodingBinary); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReadServerHello(); err != nil {
		t.Fatal(err)
	}
	return nc, st
}

// roundTripTCP sends one request envelope and decodes the reply.
func roundTripTCP(t testing.TB, st *wire.Stream, id uint32, req *wire.Request, lookup bool, resp *wire.Response) {
	t.Helper()
	frame, err := req.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var flags byte
	if lookup {
		flags = wire.StreamFlagLookup
	}
	if err := st.WriteEnvelope(id, flags, frame); err != nil {
		t.Fatal(err)
	}
	gotID, gotFlags, payload, err := st.ReadEnvelope(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if gotID != id {
		t.Fatalf("response id %d, want %d", gotID, id)
	}
	if gotFlags&wire.StreamFlagError != 0 {
		t.Fatalf("error envelope: %s", payload)
	}
	if err := resp.DecodeBinary(payload); err != nil {
		t.Fatal(err)
	}
}

// TestTCPEndToEnd pins that the TCP plane serves the same decisions
// as the HTTP plane, with request errors answered as error envelopes
// that leave the connection usable.
func TestTCPEndToEnd(t *testing.T) {
	repo := testRepository(t, 1)
	s, _ := newTestServer(t, repo, Config{})
	_, addr := startTCP(t, s, TCPConfig{})
	sig := foreseenSignature(t, repo, 2, 220)

	_, st := dialStream(t, addr)
	var req wire.Request
	var resp wire.Response

	// Lookup hit.
	req.Reset()
	req.AppendRow(sig)
	roundTripTCP(t, st, 1, &req, true, &resp)
	if len(resp.Results) != 1 || !resp.Results[0].Hit {
		t.Fatalf("lookup results %+v, want one hit", resp.Results)
	}
	if resp.Version == 0 {
		t.Fatal("response version 0")
	}

	// Classify.
	req.Reset()
	req.AppendRow(sig)
	roundTripTCP(t, st, 2, &req, false, &resp)
	if len(resp.Results) != 1 || resp.Results[0].Class < 0 {
		t.Fatalf("classify results %+v", resp.Results)
	}

	// Bad request (wrong width) → error envelope, connection stays.
	req.Reset()
	req.AppendRow([]float64{1, 2})
	frame, err := req.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteEnvelope(3, wire.StreamFlagLookup, frame); err != nil {
		t.Fatal(err)
	}
	id, flags, payload, err := st.ReadEnvelope(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 || flags&wire.StreamFlagError == 0 {
		t.Fatalf("want error envelope for id 3, got id=%d flags=%d", id, flags)
	}
	if !strings.Contains(string(payload), "values") {
		t.Fatalf("error message %q", payload)
	}

	// Connection survived the error.
	req.Reset()
	req.AppendRow(sig)
	roundTripTCP(t, st, 4, &req, true, &resp)
	if len(resp.Results) != 1 {
		t.Fatalf("post-error lookup results %+v", resp.Results)
	}
	if got := s.badRequests.Load(); got != 1 {
		t.Errorf("badRequests = %d, want 1 (the bad width)", got)
	}
}

// TestTCPHelloEncodingGuard pins the stream plane's half of the
// one-encoding contract: the hello's enc byte is reserved at 1. A
// client naming any other encoding — 0 was the retired JSON codec —
// gets no server hello and a closed connection, the daemon counts a
// bad request and logs the specific reason.
func TestTCPHelloEncodingGuard(t *testing.T) {
	repo := testRepository(t, 1)
	logs := make(chan string, 16)
	s, _ := newTestServer(t, repo, Config{Logf: func(format string, args ...any) {
		logs <- fmt.Sprintf(format, args...)
	}})
	_, addr := startTCP(t, s, TCPConfig{})
	for _, tc := range []struct {
		enc    byte
		served bool
	}{{1, true}, {0, false}, {2, false}, {255, false}} {
		before := s.badRequests.Load()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write([]byte{'D', 'J', 'V', 'S', wire.StreamVersion, tc.enc}); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err = wire.NewStream(nc).ReadServerHello()
		nc.Close()
		if tc.served {
			if err != nil {
				t.Errorf("enc byte %d: %v, want a server hello", tc.enc, err)
			}
			continue
		}
		if !errors.Is(err, io.EOF) {
			t.Errorf("enc byte %d: %v, want the connection closed before any server hello", tc.enc, err)
		}
		select {
		case line := <-logs:
			if want := fmt.Sprintf("unsupported stream encoding byte %d", tc.enc); !strings.Contains(line, want) {
				t.Errorf("enc byte %d: logged %q, want mention of %q", tc.enc, line, want)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("enc byte %d: rejection never logged", tc.enc)
		}
		if got := s.badRequests.Load() - before; got != 1 {
			t.Errorf("enc byte %d: badRequests moved by %d, want 1", tc.enc, got)
		}
	}
}

// TestTCPPipelining pins the request-id contract: a client may write
// many envelopes before reading, and each response names the request
// it answers.
func TestTCPPipelining(t *testing.T) {
	repo := testRepository(t, 1)
	s, _ := newTestServer(t, repo, Config{})
	_, addr := startTCP(t, s, TCPConfig{})
	sig := foreseenSignature(t, repo, 2, 220)
	_, st := dialStream(t, addr)

	const n = 16
	var req wire.Request
	req.Reset()
	req.AppendRow(sig)
	frame, err := req.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := st.WriteEnvelope(uint32(1000+i), wire.StreamFlagLookup, frame); err != nil {
			t.Fatal(err)
		}
	}
	var resp wire.Response
	for i := 0; i < n; i++ {
		id, flags, payload, err := st.ReadEnvelope(1 << 20)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if id != uint32(1000+i) {
			t.Fatalf("response %d has id %d, want %d", i, id, 1000+i)
		}
		if flags&wire.StreamFlagError != 0 {
			t.Fatalf("response %d: error envelope %s", i, payload)
		}
		if err := resp.DecodeBinary(payload); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != 1 || !resp.Results[0].Hit {
			t.Fatalf("response %d: %+v", i, resp.Results)
		}
	}
}

// TestTCPRejectsForeignProtocol pins that an HTTP request hitting the
// TCP port is dropped at the hello, counted as a bad request.
func TestTCPRejectsForeignProtocol(t *testing.T) {
	repo := testRepository(t, 1)
	s, _ := newTestServer(t, repo, Config{})
	_, addr := startTCP(t, s, TCPConfig{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("POST /v1/lookup HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// Server closes without a hello of its own.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if n, err := nc.Read(buf); err == nil {
		t.Fatalf("read %d bytes, want closed connection", n)
	}
	if got := s.badRequests.Load(); got != 1 {
		t.Errorf("badRequests = %d, want 1", got)
	}
}

// TestTCPAccepters pins that multiple accept loops (per-core accept
// sharding) all serve and that Close drains live connections.
func TestTCPAccepters(t *testing.T) {
	repo := testRepository(t, 1)
	s, _ := newTestServer(t, repo, Config{})
	ts, addr := startTCP(t, s, TCPConfig{Accepters: 4})
	sig := foreseenSignature(t, repo, 2, 220)

	const conns = 8
	streams := make([]*wire.Stream, conns)
	for i := range streams {
		_, streams[i] = dialStream(t, addr)
	}
	var req wire.Request
	req.AppendRow(sig)
	var resp wire.Response
	for i, st := range streams {
		roundTripTCP(t, st, uint32(i), &req, true, &resp)
		if len(resp.Results) != 1 {
			t.Fatalf("conn %d: %+v", i, resp.Results)
		}
	}
	if got := ts.tcpConns.Load(); got != conns {
		t.Errorf("%d connections accepted, want %d", got, conns)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close every stream is dead.
	if _, _, _, err := streams[0].ReadEnvelope(1 << 20); err == nil {
		t.Error("read on closed server succeeded")
	}
}

// TestTCPDecideZeroAlloc pins the acceptance bar: a warmed
// client+server round trip over real TCP — encode, envelope write,
// server decode/decide/encode, envelope read, decode — allocates
// nothing on either side. AllocsPerRun counts mallocs across all
// goroutines, so the server's connection goroutine is inside the
// measurement.
func TestTCPDecideZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	repo := testRepository(t, 1)
	s, _ := newTestServer(t, repo, Config{})
	_, addr := startTCP(t, s, TCPConfig{})
	sig := foreseenSignature(t, repo, 2, 220)
	_, st := dialStream(t, addr)

	var req wire.Request
	for i := 0; i < 16; i++ {
		req.AppendRow(sig)
	}
	var frame []byte
	var resp wire.Response
	var id uint32
	roundTrip := func() {
		id++
		var err error
		frame, err = req.AppendBinary(frame[:0])
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WriteEnvelope(id, wire.StreamFlagLookup, frame); err != nil {
			t.Fatal(err)
		}
		gotID, flags, payload, err := st.ReadEnvelope(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if gotID != id || flags&wire.StreamFlagError != 0 {
			t.Fatalf("id=%d flags=%d", gotID, flags)
		}
		if err := resp.DecodeBinary(payload); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != 16 {
			t.Fatalf("results %d", len(resp.Results))
		}
	}
	for i := 0; i < 5; i++ {
		roundTrip() // warm scratch on both sides
	}
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Errorf("TCP decide round trip allocates %.1f times, want 0", allocs)
		t.Log(testkit.AllocSites(200, roundTrip))
	}

	// The queued path: eight requests in one write, so the server
	// queues replies behind each other and flushes them together.
	burst := func() {
		var err error
		frame, err = req.AppendBinary(frame[:0])
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if err := st.WriteEnvelope(id+1+uint32(i), wire.StreamFlagLookup, frame); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			id++
			gotID, flags, payload, err := st.ReadEnvelope(1 << 20)
			if err != nil {
				t.Fatal(err)
			}
			if gotID != id || flags&wire.StreamFlagError != 0 {
				t.Fatalf("id=%d flags=%d, want id %d", gotID, flags, id)
			}
			if err := resp.DecodeBinary(payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 5; i++ {
		burst()
	}
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Errorf("depth-8 pipelined TCP burst allocates %.1f times, want 0", allocs)
		t.Log(testkit.AllocSites(100, burst))
	}
}

// TestTCPFlushBeforeBlock pins the rule that makes reply coalescing
// safe: a reply is held back only while the next request is already
// whole in the read buffer. A client that sends one request and half of
// the next, then waits, must get its first answer — the half request
// cannot be served, so the read would block with the reply queued.
func TestTCPFlushBeforeBlock(t *testing.T) {
	repo := testRepository(t, 1)
	s, _ := newTestServer(t, repo, Config{})
	_, addr := startTCP(t, s, TCPConfig{})
	frame := decisionBody(t, foreseenSignature(t, repo, 2, 220), 1)

	var two bytes.Buffer
	enc := wire.NewStream(&two)
	if err := enc.WriteEnvelope(1, wire.StreamFlagLookup, frame); err != nil {
		t.Fatal(err)
	}
	if err := enc.WriteEnvelope(2, wire.StreamFlagLookup, frame); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	cut := two.Len() * 3 / 4 // all of the first request, half of the second

	nc, st := dialStream(t, addr)
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Write(two.Bytes()[:cut]); err != nil {
		t.Fatal(err)
	}
	if id, flags, _, err := st.ReadEnvelope(1 << 20); err != nil || id != 1 || flags != 0 {
		t.Fatalf("first reply while the second request is half sent: id=%d flags=%d err=%v", id, flags, err)
	}
	if _, err := nc.Write(two.Bytes()[cut:]); err != nil {
		t.Fatal(err)
	}
	if id, flags, _, err := st.ReadEnvelope(1 << 20); err != nil || id != 2 || flags != 0 {
		t.Fatalf("second reply: id=%d flags=%d err=%v", id, flags, err)
	}
}

// TestTCPPipelinedBurstSharesWrites pins the amortisation and its
// counters: a depth-8 burst that arrives together is answered, ids in
// order, in strictly fewer writes than envelopes, while a synchronous
// caller on the same connection gets exactly one write per response.
func TestTCPPipelinedBurstSharesWrites(t *testing.T) {
	repo := testRepository(t, 1)
	s, _ := newTestServer(t, repo, Config{})
	ts, addr, accepted := startCountingTCP(t, s, TCPConfig{})
	sig := foreseenSignature(t, repo, 2, 220)
	frame := decisionBody(t, sig, 1)
	nc, st := dialStream(t, addr)
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	cc := <-accepted
	afterHello := cc.writes.Load()

	const depth = 8
	for i := 0; i < depth; i++ {
		flags := byte(wire.StreamFlagLookup)
		if i == 3 {
			flags = wire.StreamFlagPing // pings are queued like decisions
		}
		if err := st.WriteEnvelope(uint32(100+i), flags, frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < depth; i++ {
		id, flags, _, err := st.ReadEnvelope(1 << 20)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if id != uint32(100+i) || flags&wire.StreamFlagError != 0 {
			t.Fatalf("reply %d: id=%d flags=%d", i, id, flags)
		}
	}
	burstWrites := cc.writes.Load() - afterHello
	if burstWrites < 1 || burstWrites >= depth {
		t.Errorf("%d server writes for a burst of %d envelopes, want fewer writes than envelopes", burstWrites, depth)
	}

	var req wire.Request
	req.AppendRow(sig)
	var resp wire.Response
	for i := 0; i < depth; i++ {
		roundTripTCP(t, st, uint32(200+i), &req, true, &resp)
	}
	if syncWrites := cc.writes.Load() - afterHello - burstWrites; syncWrites != depth {
		t.Errorf("%d server writes for %d synchronous round trips, want one each", syncWrites, depth)
	}
	if got := ts.Stats(); got.Envelopes != 2*depth || got.Flushes != burstWrites+depth {
		t.Errorf("Stats() = %+v, want %d envelopes in %d flushes", got, 2*depth, burstWrites+depth)
	}
}

// TestTCPStalledReaderBoundedQueue pins the memory bound: a peer that
// pipelines without ever reading makes the server queue replies only
// up to responseQueueCap plus one response per connection — the flush
// then blocks on the peer, which stops the reading — and Close still
// returns promptly with the connection stuck mid-write.
func TestTCPStalledReaderBoundedQueue(t *testing.T) {
	repo := testRepository(t, 1)
	s, _ := newTestServer(t, repo, Config{})
	ts, addr, accepted := startCountingTCP(t, s, TCPConfig{})
	nc, st := dialStream(t, addr)
	cc := <-accepted

	// An empty non-ping envelope is 9 bytes and is answered by an error
	// envelope several times that, so one 16 KiB read buffer of them
	// fills the reply queue past the cap.
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	if err := st.WriteEnvelope(1, wire.StreamFlagLookup, nil); err != nil {
		t.Fatal(err)
	}
	_, flags, msg, err := st.ReadEnvelope(1 << 20)
	if err != nil || flags&wire.StreamFlagError == 0 {
		t.Fatalf("empty request: flags=%d err=%v, want an error envelope", flags, err)
	}
	oneResponse := int64(4 + 5 + len(msg))
	if oneResponse < 3*9 {
		t.Fatalf("error envelope is %d bytes; the test needs replies larger than requests", oneResponse)
	}

	// A chunk of 4096 such requests, written again and again under a
	// short deadline until the kernel will take no more.
	chunk := &bytes.Buffer{}
	enc := wire.NewStream(chunk)
	for i := 0; i < 4096; i++ {
		if err := enc.WriteEnvelope(uint32(i), wire.StreamFlagLookup, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	stalled := false
	for i := 0; i < 4096 && !stalled; i++ { // ≤ 144 MiB; loopback buffers are a few MiB
		nc.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
		if _, err := nc.Write(chunk.Bytes()); err != nil {
			stalled = true
		}
	}
	if !stalled {
		t.Fatal("the never-reading peer's writes never blocked: the server is not exerting backpressure")
	}
	if got := cc.maxWrite.Load(); got < responseQueueCap || got > responseQueueCap+oneResponse {
		t.Errorf("largest server write %d bytes, want within [cap %d, cap + one response %d]",
			got, responseQueueCap, responseQueueCap+oneResponse)
	}
	closed := make(chan error, 1)
	go func() { closed <- ts.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with a connection blocked mid-flush")
	}
}

// TestTCPHelloDeadlineClearedOnce pins the disabled-idle-timeout path:
// the hello deadline is cleared once after the handshake — not before
// every envelope — and stays cleared.
func TestTCPHelloDeadlineClearedOnce(t *testing.T) {
	repo := testRepository(t, 1)
	s, _ := newTestServer(t, repo, Config{})
	_, addr, accepted := startCountingTCP(t, s, TCPConfig{HelloTimeout: 50 * time.Millisecond, IdleTimeout: -1})
	sig := foreseenSignature(t, repo, 2, 220)
	nc, st := dialStream(t, addr)
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	cc := <-accepted

	var req wire.Request
	req.AppendRow(sig)
	var resp wire.Response
	for i := 0; i < 4; i++ {
		roundTripTCP(t, st, uint32(i), &req, true, &resp)
	}
	time.Sleep(100 * time.Millisecond) // past the hello deadline, had it been left armed
	roundTripTCP(t, st, 9, &req, true, &resp)
	if got := cc.readDeadlines.Load(); got != 2 {
		t.Errorf("%d SetReadDeadline calls over 5 requests, want 2 (arm the hello's, clear it)", got)
	}
}

// TestTCPPipelinedCallerLiveness pins that the shared write policy
// cannot deadlock a pipelining caller: one that keeps up to depth
// requests queued on its Stream and then waits for the oldest reply
// always gets it, at depths 1, 8 and 64 and with request payloads from
// empty to past the queue cap. It runs over loopback TCP because
// net.Pipe has no buffer and deadlocks any pipelining caller.
func TestTCPPipelinedCallerLiveness(t *testing.T) {
	repo := testRepository(t, 1)
	s, _ := newTestServer(t, repo, Config{})
	_, addr := startTCP(t, s, TCPConfig{})
	sig := foreseenSignature(t, repo, 2, 220)
	big := 16
	for len(decisionBody(t, sig, big)) <= responseQueueCap {
		big *= 2
	}
	// An empty payload is answered with an error envelope, the rest with decisions.
	payloads := [][]byte{nil, decisionBody(t, sig, 1), decisionBody(t, sig, 16), nil, decisionBody(t, sig, 16), decisionBody(t, sig, big)}
	const requests = 300
	for _, depth := range []int{1, 8, 64} {
		nc, st := dialStream(t, addr)
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		var resp wire.Response
		for sent, done := 0, 0; done < requests; done++ {
			for ; sent-done < depth && sent < requests; sent++ {
				if err := st.WriteEnvelope(uint32(sent), wire.StreamFlagLookup, payloads[sent%len(payloads)]); err != nil {
					t.Fatalf("depth %d, request %d: %v", depth, sent, err)
				}
			}
			id, flags, body, err := st.ReadEnvelope(1 << 24)
			if err != nil {
				t.Fatalf("depth %d, reply %d: %v", depth, done, err)
			}
			if id != uint32(done) {
				t.Fatalf("depth %d: reply id %d, want %d", depth, id, done)
			}
			p := payloads[done%len(payloads)]
			if gotErr := flags&wire.StreamFlagError != 0; gotErr != (len(p) == 0) {
				t.Fatalf("depth %d, reply %d to a %d-byte request: error flag %v", depth, done, len(p), gotErr)
			}
			if len(p) > 0 {
				if err := resp.DecodeBinary(body); err != nil {
					t.Fatal(err)
				}
			}
		}
		nc.Close()
	}
}
