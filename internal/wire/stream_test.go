package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
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

// TestStreamZeroAllocSteadyState pins that warmed envelope traffic
// allocates nothing on either side.
func TestStreamZeroAllocSteadyState(t *testing.T) {
	payload := bytes.Repeat([]byte{0x55}, 1024)
	var wireBytes bytes.Buffer
	ws := NewStream(&pipeBuf{R: &bytes.Buffer{}, W: &wireBytes})
	rs := NewStream(&pipeBuf{R: &wireBytes, W: &bytes.Buffer{}})
	// Warm both scratch buffers (and bytes.Buffer's own backing).
	for i := 0; i < 4; i++ {
		if err := ws.WriteEnvelope(uint32(i), 0, payload); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := rs.ReadEnvelope(1 << 20); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := ws.WriteEnvelope(9, 0, payload); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := rs.ReadEnvelope(1 << 20); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("envelope round trip allocates %.1f times, want 0", allocs)
	}
}
