package wire

import (
	"bytes"
	"math"
	"testing"
)

// The binary decoders are the only parsers of untrusted decision
// bytes. Each target holds its decoder to three properties: it never
// panics, a frame cannot make it allocate more than the frame's own
// length (itself bounded by maxValues / the caller's maxPayload), and
// whatever decodes re-encodes to something that decodes to the same
// value. Seeds are the binary_test.go / stream_test.go vectors.

// seedRequestFrames returns valid, corrupted and hostile request frames.
func seedRequestFrames(f *testing.F) [][]byte {
	var req Request
	req.SetTemplate("cassandra")
	req.Bucket = 3
	req.AppendRow([]float64{1.5, -2, 300})
	req.AppendRow([]float64{0, math.MaxFloat64, 5e-324})
	good, err := req.AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	batch, _ := benchBatch()
	big, err := batch.AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	var zero Request
	empty, _ := zero.AppendBinary(nil)
	frames := [][]byte{good, big, empty, nil, good[:5], good[:len(good)-3], append(append([]byte(nil), good...), 0)}
	for _, dims := range hostileDimensions {
		frames = append(frames, hostileFrame(dims[0], dims[1]))
	}
	return frames
}

func FuzzRequestDecodeBinary(f *testing.F) {
	for _, frame := range seedRequestFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := req.DecodeBinary(data); err != nil {
			return
		}
		width, rect := req.Rectangular()
		if !rect || req.Rows() == 0 || width == 0 || req.Rows()*width > maxValues {
			t.Fatalf("decoded a %d×%d batch (rectangular=%v)", req.Rows(), width, rect)
		}
		if 8*cap(req.vals) > len(data) {
			t.Fatalf("%d-byte frame allocated %d values", len(data), cap(req.vals))
		}
		again, err := req.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		var back Request
		if err := back.DecodeBinary(again); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !bytes.Equal(back.Template, req.Template) || back.Bucket != req.Bucket || back.Rows() != req.Rows() {
			t.Fatalf("round trip header: %+v != %+v", back, req)
		}
		for i, v := range req.vals {
			if math.Float64bits(back.vals[i]) != math.Float64bits(v) {
				t.Fatalf("round trip value %d: %x != %x", i, math.Float64bits(back.vals[i]), math.Float64bits(v))
			}
		}
	})
}

func FuzzResponseDecodeBinary(f *testing.F) {
	resp := Response{Version: 41, Lookup: true, Results: []Decision{
		{Class: 2, Certainty: 0.953, Hit: true, Type: 2, Count: 5},
		{Class: -1, Certainty: 0.31, Unforeseen: true},
		{Class: 7, Certainty: 1},
	}}
	good := resp.AppendBinary(nil)
	_, batch := benchBatch()
	f.Add(good)
	f.Add(batch.AppendBinary(nil))
	f.Add(good[:len(good)-2])
	f.Add(append(append([]byte(nil), good...), 0))
	for _, frame := range seedRequestFrames(f) { // wrong magic, short, empty
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp Response
		if err := resp.DecodeBinary(data); err != nil {
			return
		}
		if len(resp.Results) > maxRows || minRowBytes*cap(resp.Results) > len(data) {
			t.Fatalf("%d-byte frame allocated %d rows", len(data), cap(resp.Results))
		}
		var back Response
		if err := back.DecodeBinary(resp.AppendBinary(nil)); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if back.Version != resp.Version || back.Lookup != resp.Lookup || len(back.Results) != len(resp.Results) {
			t.Fatalf("round trip header: %+v != %+v", back, resp)
		}
		for i, want := range resp.Results {
			got := back.Results[i]
			if math.Float64bits(got.Certainty) != math.Float64bits(want.Certainty) {
				t.Fatalf("round trip certainty %d: %v != %v", i, got.Certainty, want.Certainty)
			}
			got.Certainty, want.Certainty = 0, 0
			if got != want {
				t.Fatalf("round trip row %d: %+v != %+v", i, got, want)
			}
		}
	})
}

func FuzzStreamReadEnvelope(f *testing.F) {
	var seed bytes.Buffer
	ws := NewStream(&pipeBuf{R: &bytes.Buffer{}, W: &seed})
	frames := seedRequestFrames(f)
	for i, p := range [][]byte{[]byte("first"), {}, bytes.Repeat([]byte{0xAB}, 4096), frames[0]} {
		if err := ws.WriteEnvelope(uint32(100+i), byte(i), p); err != nil {
			f.Fatal(err)
		}
	}
	if err := ws.Flush(); err != nil {
		f.Fatal(err)
	}
	full := seed.Bytes()
	f.Add(full)
	f.Add(full[:20])                                  // mid-frame death
	f.Add([]byte{2, 0, 0, 0, 1, 0, 0, 0, 0})          // elen shorter than its header
	f.Add([]byte{255, 255, 255, 255, 1, 0, 0, 0, 0})  // oversized payload
	f.Add([]byte{'D', 'J', 'V', 'S', 1, 1})           // a hello where an envelope belongs
	f.Add([]byte("POST /v1/lookup HTTP/1.1\r\n\r\n")) // HTTP on the stream port
	const maxPayload = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		// The hello reader sees the same bytes: it must reject or accept
		// without panicking, and only ever accept the binary tag.
		if enc, err := NewStream(&pipeBuf{R: bytes.NewBuffer(data), W: &bytes.Buffer{}}).ReadClientHello(); err == nil && enc != EncodingBinary {
			t.Fatalf("hello accepted encoding %d", enc)
		}
		rs := NewStream(&pipeBuf{R: bytes.NewBuffer(data), W: &bytes.Buffer{}})
		var rewritten bytes.Buffer
		ws := NewStream(&pipeBuf{R: &bytes.Buffer{}, W: &rewritten})
		for {
			id, flags, payload, err := rs.ReadEnvelope(maxPayload)
			if err != nil {
				break
			}
			if len(payload) > maxPayload || cap(rs.payload) > maxPayload {
				t.Fatalf("payload of %d bytes (scratch %d) exceeds limit %d", len(payload), cap(rs.payload), maxPayload)
			}
			if err := ws.WriteEnvelope(id, flags, payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := ws.Flush(); err != nil {
			t.Fatal(err)
		}
		// Envelope framing is canonical: what was read re-encodes to
		// exactly the bytes consumed.
		if !bytes.HasPrefix(data, rewritten.Bytes()) {
			t.Fatalf("re-encoded envelopes are not the consumed prefix of the input")
		}
	})
}

// FuzzStreamWritePolicy runs an arbitrary sequence of WriteEnvelope,
// Flush and ReadEnvelope calls on one Stream whose reads come from
// fuzzed bytes, and checks the write policy: every queued envelope
// reaches the writer exactly once and in order, no Write exceeds the
// cap plus the envelope that reached it, and a Write happens exactly
// at a Flush or a read with no whole envelope buffered (with something
// queued), or at the cap.
func FuzzStreamWritePolicy(f *testing.F) {
	reply := appendTestEnvelope(nil, 1, 0, []byte("reply"))
	twoReplies := append(append([]byte(nil), reply...), reply...)
	f.Add([]byte{0, 1, 1, 2, 3}, twoReplies)            // queue, read with nothing buffered
	f.Add([]byte{0, 1, 3, 0, 9, 3, 3}, twoReplies)      // a read with a reply buffered, then EOF
	f.Add(bytes.Repeat([]byte{0, 255}, 10), reply)      // large envelopes past the cap
	f.Add([]byte{1, 0, 2, 2, 3, 3}, []byte{2, 0, 0, 0}) // a malformed reply
	f.Fuzz(func(t *testing.T, ops, reads []byte) {
		if len(ops) > 256 {
			return // up to 128 envelopes of up to 4 KiB: the cap is reached, memory stays small
		}
		c := &policyConn{R: bytes.NewBuffer(reads)}
		s := NewStream(c)
		var want []byte
		queued, last, id := 0, 0, uint32(0)
		for i := 0; i < len(ops); i++ {
			before := len(c.writes)
			var cause string
			op := ops[i] % 4
			switch op {
			case 0, 1: // WriteEnvelope, sized by the next op byte
				n := 0
				if i+1 < len(ops) {
					i++
					n = int(ops[i]) * 16
				}
				p := bytes.Repeat([]byte{byte(id)}, n)
				want = appendTestEnvelope(want, id, ops[i], p)
				if err := s.WriteEnvelope(id, ops[i], p); err != nil {
					t.Fatal(err)
				}
				id++
				last = 4 + envelopeHeaderLen + n
				if queued += last; queued >= StreamQueueCap {
					cause = "cap"
				}
			case 2:
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				if queued > 0 {
					cause = "Flush"
				}
			case 3:
				if queued > 0 && !s.EnvelopeBuffered() {
					cause = "a read that may block"
				}
				_, _, _, _ = s.ReadEnvelope(1 << 16) // reads may fail; writes may not
			}
			switch wrote := len(c.writes) - before; {
			case cause == "" && wrote != 0:
				t.Fatalf("op %d (%d): %d writes with no flush due", i, op, wrote)
			case cause != "" && wrote != 1:
				t.Fatalf("op %d (%d): %d writes at %s, want 1", i, op, wrote, cause)
			case wrote == 1:
				if got := len(c.writes[before]); got != queued || got > StreamQueueCap+last {
					t.Fatalf("op %d: a %d-byte write with %d bytes queued, the last envelope %d bytes", i, got, queued, last)
				}
				queued = 0
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := bytes.Join(c.writes, nil); !bytes.Equal(got, want) {
			t.Fatalf("the writes carry %d bytes, not the %d bytes of the %d queued envelopes in order", len(got), len(want), id)
		}
	})
}
