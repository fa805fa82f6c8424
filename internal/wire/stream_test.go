package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/testkit"
)

// pipeBuf is an in-memory ReadWriter: reads drain from R, writes land
// in W.
type pipeBuf struct {
	R *bytes.Buffer
	W *bytes.Buffer
}

func (p *pipeBuf) Read(b []byte) (int, error)  { return p.R.Read(b) }
func (p *pipeBuf) Write(b []byte) (int, error) { return p.W.Write(b) }

// TestStreamHelloRoundTrip pins the handshake bytes: the zero tag and
// EncodingBinary both put 'D' 'J' 'V' 'S' 1 1 on the wire, the peer
// reads EncodingBinary back, and any other tag is refused before a
// byte is written.
func TestStreamHelloRoundTrip(t *testing.T) {
	for _, enc := range []Encoding{0, EncodingBinary} {
		var wireBytes bytes.Buffer
		cs := NewStream(&pipeBuf{R: &bytes.Buffer{}, W: &wireBytes})
		if err := cs.WriteClientHello(enc); err != nil {
			t.Fatal(err)
		}
		if want := []byte{'D', 'J', 'V', 'S', 1, 1}; !bytes.Equal(wireBytes.Bytes(), want) {
			t.Fatalf("hello bytes %v, want %v", wireBytes.Bytes(), want)
		}
		ss := NewStream(&pipeBuf{R: &wireBytes, W: &bytes.Buffer{}})
		got, err := ss.ReadClientHello()
		if err != nil {
			t.Fatal(err)
		}
		if got != EncodingBinary {
			t.Fatalf("hello read back %v, want %v", got, EncodingBinary)
		}
	}
	var wireBytes bytes.Buffer
	cs := NewStream(&pipeBuf{R: &bytes.Buffer{}, W: &wireBytes})
	if err := cs.WriteClientHello(2); err == nil || wireBytes.Len() != 0 {
		t.Fatalf("unknown tag: err = %v, %d bytes written", err, wireBytes.Len())
	}
}

// TestStreamHelloRejections pins the failure modes: foreign magic
// (an HTTP request hitting the TCP port), an unknown version byte,
// and any encoding byte but 1 — including 0, the retired JSON tag —
// all fail loudly with specific errors.
func TestStreamHelloRejections(t *testing.T) {
	good := func() []byte {
		var b bytes.Buffer
		s := NewStream(&pipeBuf{R: &bytes.Buffer{}, W: &b})
		if err := s.WriteClientHello(EncodingBinary); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}()
	cases := []struct {
		name string
		raw  []byte
		want string
	}{
		{"http-on-tcp-port", []byte("POST /v"), "magic"},
		{"bad-version", func() []byte { b := append([]byte(nil), good...); b[4] = 99; return b }(), "version"},
		{"bad-encoding", func() []byte { b := append([]byte(nil), good...); b[5] = 7; return b }(), "unsupported stream encoding byte 7"},
		{"retired-json-encoding", func() []byte { b := append([]byte(nil), good...); b[5] = 0; return b }(), "unsupported stream encoding byte 0"},
		{"truncated", good[:3], "hello"},
	}
	for _, tc := range cases {
		s := NewStream(&pipeBuf{R: bytes.NewBuffer(tc.raw), W: &bytes.Buffer{}})
		_, err := s.ReadClientHello()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestStreamEnvelopeRoundTrip pins envelope framing, including ids,
// flags, empty payloads, and back-to-back (pipelined) envelopes read
// in sequence.
func TestStreamEnvelopeRoundTrip(t *testing.T) {
	var wireBytes bytes.Buffer
	ws := NewStream(&pipeBuf{R: &bytes.Buffer{}, W: &wireBytes})
	payloads := [][]byte{
		[]byte("first"),
		{},
		bytes.Repeat([]byte{0xAB}, 4096),
	}
	flags := []byte{StreamFlagLookup, 0, StreamFlagError}
	for i, p := range payloads {
		if err := ws.WriteEnvelope(uint32(100+i), flags[i], p); err != nil {
			t.Fatal(err)
		}
	}
	if err := ws.Flush(); err != nil {
		t.Fatal(err)
	}
	rs := NewStream(&pipeBuf{R: &wireBytes, W: &bytes.Buffer{}})
	for i, p := range payloads {
		id, f, got, err := rs.ReadEnvelope(1 << 20)
		if err != nil {
			t.Fatalf("envelope %d: %v", i, err)
		}
		if id != uint32(100+i) || f != flags[i] || !bytes.Equal(got, p) {
			t.Fatalf("envelope %d: id=%d flags=%d len=%d", i, id, f, len(got))
		}
	}
	if _, _, _, err := rs.ReadEnvelope(1 << 20); err != io.EOF {
		t.Fatalf("after last envelope: %v, want io.EOF", err)
	}
}

// TestStreamEnvelopeCarriesWireFrames pins the tentpole property: the
// envelope payload is the exact binary request frame the codec
// produces, decodable unchanged on the far side.
func TestStreamEnvelopeCarriesWireFrames(t *testing.T) {
	var req Request
	req.SetTemplate("cassandra")
	req.Bucket = 3
	req.AppendRow([]float64{1.5, -2.25, 3})
	frame, err := req.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var wireBytes bytes.Buffer
	ws := NewStream(&pipeBuf{R: &bytes.Buffer{}, W: &wireBytes})
	if err := ws.WriteEnvelope(7, StreamFlagLookup, frame); err != nil {
		t.Fatal(err)
	}
	if err := ws.Flush(); err != nil {
		t.Fatal(err)
	}
	rs := NewStream(&pipeBuf{R: &wireBytes, W: &bytes.Buffer{}})
	_, _, payload, err := rs.ReadEnvelope(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := got.DecodeBinary(payload); err != nil {
		t.Fatal(err)
	}
	if string(got.Template) != "cassandra" || got.Bucket != 3 || got.Rows() != 1 || got.Row(0)[1] != -2.25 {
		t.Fatalf("decoded %+v", got)
	}
}

// TestStreamEnvelopeLimits pins the defensive bounds: an oversized
// payload is rejected before it is read, an impossible length fails,
// and a connection dying mid-frame reports truncation (distinct from
// the io.EOF of a clean close).
func TestStreamEnvelopeLimits(t *testing.T) {
	var wireBytes bytes.Buffer
	ws := NewStream(&pipeBuf{R: &bytes.Buffer{}, W: &wireBytes})
	if err := ws.WriteEnvelope(1, 0, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := ws.Flush(); err != nil {
		t.Fatal(err)
	}
	full := append([]byte(nil), wireBytes.Bytes()...)

	rs := NewStream(&pipeBuf{R: bytes.NewBuffer(full), W: &bytes.Buffer{}})
	if _, _, _, err := rs.ReadEnvelope(99); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized payload: %v", err)
	}

	// elen shorter than its own header.
	bad := append([]byte(nil), full...)
	bad[0], bad[1], bad[2], bad[3] = 2, 0, 0, 0
	rs = NewStream(&pipeBuf{R: bytes.NewBuffer(bad), W: &bytes.Buffer{}})
	if _, _, _, err := rs.ReadEnvelope(1 << 20); err == nil || !strings.Contains(err.Error(), "shorter") {
		t.Fatalf("undersized elen: %v", err)
	}

	// Mid-frame death: header present, payload cut.
	rs = NewStream(&pipeBuf{R: bytes.NewBuffer(full[:20]), W: &bytes.Buffer{}})
	if _, _, _, err := rs.ReadEnvelope(1 << 20); !errors.Is(err, errStreamTruncated) {
		t.Fatalf("mid-frame cut: %v", err)
	}
}

// countingWriter is a connection nobody reads from that counts Write
// calls and keeps the bytes.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(b)
}

// TestStreamQueueFlush pins the write side: queued envelopes reach the
// connection only on Flush, as one Write carrying exactly the bytes the
// same envelopes produce flushed one at a time; an empty Flush writes
// nothing; WriteEnvelope alone writes nothing, and a Flush after each
// is one envelope in one Write.
func TestStreamQueueFlush(t *testing.T) {
	payloads := [][]byte{[]byte("first"), {}, bytes.Repeat([]byte{0xAB}, 300)}
	var through countingWriter
	ts := NewStream(&through)
	for i, p := range payloads {
		if err := ts.WriteEnvelope(uint32(i), byte(i), p); err != nil {
			t.Fatal(err)
		}
		if through.writes != i {
			t.Fatalf("WriteEnvelope wrote: %d writes after %d envelopes", through.writes, i+1)
		}
		if err := ts.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if through.writes != len(payloads) {
		t.Fatalf("flushed one at a time: %d writes for %d envelopes", through.writes, len(payloads))
	}

	var queued countingWriter
	qs := NewStream(&queued)
	if err := qs.Flush(); err != nil || queued.writes != 0 {
		t.Fatalf("empty flush: err %v, %d writes", err, queued.writes)
	}
	for i, p := range payloads {
		if err := qs.WriteEnvelope(uint32(i), byte(i), p); err != nil {
			t.Fatal(err)
		}
	}
	if queued.writes != 0 || queued.Len() != 0 {
		t.Fatalf("queueing wrote %d bytes in %d writes before Flush", queued.Len(), queued.writes)
	}
	if got := len(qs.wbuf); got != through.Len() {
		t.Fatalf("queued %d bytes, want %d", got, through.Len())
	}
	if err := qs.Flush(); err != nil {
		t.Fatal(err)
	}
	if queued.writes != 1 || !bytes.Equal(queued.Bytes(), through.Bytes()) {
		t.Fatalf("flush: %d writes, bytes equal %v", queued.writes, bytes.Equal(queued.Bytes(), through.Bytes()))
	}
	if len(qs.wbuf) != 0 {
		t.Fatalf("%d bytes queued after Flush", len(qs.wbuf))
	}
}

// TestStreamEnvelopeBuffered pins the flush-before-block predicate: it
// is true exactly when the next ReadEnvelope can complete from the read
// buffer alone — not for an empty buffer, a partial header, a partial
// payload, or a malformed length with less than a header behind it.
func TestStreamEnvelopeBuffered(t *testing.T) {
	var enc bytes.Buffer
	ws := NewStream(&pipeBuf{R: &bytes.Buffer{}, W: &enc})
	for i := 0; i < 2; i++ {
		if err := ws.WriteEnvelope(uint32(i), 0, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := ws.Flush(); err != nil {
		t.Fatal(err)
	}
	one := enc.Len() / 2
	for cut, want := range map[int][2]bool{
		// bytes fed: {buffered before the first read, buffered after it}
		one:     {true, false},
		one + 3: {true, false}, // partial elen of the second
		one + 9: {true, false}, // second header whole, payload cut
		2 * one: {true, true},
		one - 1: {false, false},
		4:       {false, false},
	} {
		rs := NewStream(&pipeBuf{R: bytes.NewBuffer(enc.Bytes()[:cut]), W: &bytes.Buffer{}})
		if rs.EnvelopeBuffered() {
			t.Fatalf("cut %d: buffered before anything was read from the connection", cut)
		}
		if _, err := rs.br.Peek(1); err != nil { // one read from the connection fills the buffer
			t.Fatal(err)
		}
		if got := rs.EnvelopeBuffered(); got != want[0] {
			t.Fatalf("cut %d: EnvelopeBuffered() = %v before the first read, want %v", cut, got, want[0])
		}
		if !want[0] {
			continue
		}
		if _, _, _, err := rs.ReadEnvelope(1 << 20); err != nil {
			t.Fatal(err)
		}
		if got := rs.EnvelopeBuffered(); got != want[1] {
			t.Fatalf("cut %d: EnvelopeBuffered() = %v after the first read, want %v", cut, got, want[1])
		}
	}
	// elen = 0 with only the length buffered: ReadEnvelope reads the
	// whole fixed header before it rejects the length, so it could block.
	rs := NewStream(&pipeBuf{R: bytes.NewBuffer([]byte{0, 0, 0, 0, 1, 2}), W: &bytes.Buffer{}})
	if _, err := rs.br.Peek(1); err != nil {
		t.Fatal(err)
	}
	if rs.EnvelopeBuffered() {
		t.Fatal("malformed short envelope with a partial header reported as buffered")
	}
}

// TestStreamZeroAllocSteadyState pins that warmed envelope traffic
// allocates nothing on either side, written through or queued eight
// deep and flushed once.
func TestStreamZeroAllocSteadyState(t *testing.T) {
	payload := bytes.Repeat([]byte{0x55}, 1024)
	var wireBytes bytes.Buffer
	ws := NewStream(&pipeBuf{R: &bytes.Buffer{}, W: &wireBytes})
	rs := NewStream(&pipeBuf{R: &wireBytes, W: &bytes.Buffer{}})
	through := func() {
		if err := ws.WriteEnvelope(9, 0, payload); err != nil {
			t.Fatal(err)
		}
		if err := ws.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := rs.ReadEnvelope(1 << 20); err != nil {
			t.Fatal(err)
		}
	}
	queued := func() {
		for i := 0; i < 8; i++ {
			if err := ws.WriteEnvelope(uint32(i), 0, payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := ws.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if id, _, _, err := rs.ReadEnvelope(1 << 20); err != nil || id != uint32(i) {
				t.Fatalf("envelope %d: id %d, err %v", i, id, err)
			}
		}
	}
	for name, roundTrip := range map[string]func(){"write-through": through, "queued-depth-8": queued} {
		// Warm both scratch buffers (and bytes.Buffer's own backing).
		for i := 0; i < 4; i++ {
			roundTrip()
		}
		if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
			t.Errorf("%s envelope round trip allocates %.1f times, want 0", name, allocs)
			t.Log(testkit.AllocSites(200, roundTrip))
		}
	}
}

// policyConn is a connection whose reads drain R and whose writes are
// kept one by one, each failing with err once it is set.
type policyConn struct {
	R      *bytes.Buffer
	writes [][]byte
	err    error
}

func (c *policyConn) Read(b []byte) (int, error) { return c.R.Read(b) }

func (c *policyConn) Write(b []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	c.writes = append(c.writes, append([]byte(nil), b...))
	return len(b), nil
}

// appendTestEnvelope frames one envelope by the spec in the package
// comment, independently of the Stream's own encoder.
func appendTestEnvelope(dst []byte, id uint32, flags byte, payload []byte) []byte {
	n := envelopeHeaderLen + len(payload)
	dst = append(dst, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	dst = append(dst, byte(id), byte(id>>8), byte(id>>16), byte(id>>24), flags)
	return append(dst, payload...)
}

// TestStreamWritePolicy pins the one write policy: writes only queue;
// the queue goes out in one Write at a ReadEnvelope with no whole
// envelope buffered, at StreamQueueCap, or on Flush; and a failed flush
// surfaces from the call that flushed.
func TestStreamWritePolicy(t *testing.T) {
	reply := appendTestEnvelope(nil, 1, 0, []byte("reply"))
	for _, k := range []int{1, 3, 8} {
		c := &policyConn{R: bytes.NewBuffer(append(append([]byte(nil), reply...), reply...))}
		s := NewStream(c)
		var flushed []int
		s.OnFlush = func(n int) { flushed = append(flushed, n) }
		var want []byte
		for i := 0; i < k; i++ {
			p := bytes.Repeat([]byte{byte(i)}, 10*i)
			want = appendTestEnvelope(want, uint32(i), byte(i), p)
			if err := s.WriteEnvelope(uint32(i), byte(i), p); err != nil {
				t.Fatal(err)
			}
		}
		if len(c.writes) != 0 {
			t.Fatalf("k=%d: %d writes before any read", k, len(c.writes))
		}
		if _, _, _, err := s.ReadEnvelope(1 << 10); err != nil {
			t.Fatal(err)
		}
		if len(c.writes) != 1 || !bytes.Equal(c.writes[0], want) {
			t.Fatalf("k=%d: a read with nothing buffered made %d writes, want one carrying the %d envelopes in order", k, len(c.writes), k)
		}
		// The second reply came in with the first, so this read cannot
		// block and must not write; the read that finds the peer closed can.
		if err := s.WriteEnvelope(99, 0, nil); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := s.ReadEnvelope(1 << 10); err != nil {
			t.Fatal(err)
		}
		if len(c.writes) != 1 {
			t.Fatalf("k=%d: a read with a whole envelope buffered wrote", k)
		}
		if _, _, _, err := s.ReadEnvelope(1 << 10); err != io.EOF {
			t.Fatalf("k=%d: read past the replies: %v, want io.EOF", k, err)
		}
		if len(c.writes) != 2 || !bytes.Equal(c.writes[1], appendTestEnvelope(nil, 99, 0, nil)) {
			t.Fatalf("k=%d: the read that would block made %d writes in all, want 2", k, len(c.writes))
		}
		if len(flushed) != 2 || flushed[0] != k || flushed[1] != 1 {
			t.Fatalf("k=%d: OnFlush saw %v, want [%d 1]", k, flushed, k)
		}
	}

	// Reaching the cap writes, with no read, and nothing past one envelope.
	c := &policyConn{R: &bytes.Buffer{}}
	s := NewStream(c)
	p := make([]byte, 1000)
	one := 4 + envelopeHeaderLen + len(p)
	for queued := 0; len(c.writes) == 0; queued += one {
		if queued > StreamQueueCap {
			t.Fatalf("%d bytes queued and nothing written", queued)
		}
		if err := s.WriteEnvelope(1, 0, p); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(c.writes[0]); len(c.writes) != 1 || n < StreamQueueCap || n > StreamQueueCap+one {
		t.Fatalf("%d writes, the first %d bytes; want one within [cap %d, cap + one envelope %d]", len(c.writes), n, StreamQueueCap, StreamQueueCap+one)
	}

	// A failed flush comes back from the call that flushed: the read,
	// or the write that reached the cap.
	boom := errors.New("peer gone")
	c = &policyConn{R: bytes.NewBuffer(reply), err: boom}
	s = NewStream(c)
	if err := s.WriteEnvelope(1, 0, []byte("x")); err != nil {
		t.Fatalf("a queueing write failed: %v", err)
	}
	if _, _, _, err := s.ReadEnvelope(1 << 10); !errors.Is(err, boom) {
		t.Fatalf("read after a failing flush: %v, want %v", err, boom)
	}
	if err := s.WriteEnvelope(2, 0, make([]byte, StreamQueueCap)); !errors.Is(err, boom) {
		t.Fatalf("write reaching the cap over a failing connection: %v, want %v", err, boom)
	}
}
