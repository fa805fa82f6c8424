package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// startTCP brings up the raw-TCP decision plane on loopback and
// returns the TCPServer plus its address.
func startTCP(t testing.TB, s *Server, cfg TCPConfig) (*TCPServer, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
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
	if got := ts.Conns(); got != conns {
		t.Errorf("Conns() = %d, want %d", got, conns)
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
	}
}
