package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Raw-stream transport framing. HTTP frames decision bodies with
// Content-Length; a persistent raw TCP connection needs its own
// session layer instead, and this file is it — deliberately thin, so
// the payloads crossing it are the exact request/response frames the
// codecs above already produce:
//
//	client hello := 'D' 'J' 'V' 'S' ver:u8 enc:u8
//	server hello := 'D' 'J' 'V' 'S' ver:u8 enc:u8
//	envelope     := elen:u32 id:u32 flags:u8 payload
//
// The hello exchange is the guard the HTTP plane applies with
// Content-Type: each side names the protocol version byte and the
// payload encoding, and closes on one it does not speak. The enc byte
// is reserved: it is always 1 (EncodingBinary), and a peer sending
// anything else gets a specific error and a closed connection. Both
// sides fail loudly on a magic or version mismatch too, so a stray
// HTTP client (or an old peer) never silently misparses.
//
// Every envelope after the hello carries a caller-chosen request id.
// Responses echo the id of the request they answer, which is what
// lets a client pipeline many requests down one connection and match
// replies even if a future server answers them out of order (the
// current server answers in request order; clients MUST match by id,
// not by position). elen is little-endian and counts every byte
// after itself (id + flags + payload). On request envelopes flag
// bit0 distinguishes lookup (set) from classify (clear); on response
// envelopes flag bit0 set marks an error reply whose payload is a
// UTF-8 message instead of a wire frame.
//
// A Stream owns one connection's read/write buffers and the one write
// policy both ends share. Envelope reads land in a reusable payload
// scratch; envelope writes only queue, in one reusable write buffer,
// which reaches the connection in one Write (one packet under
// TCP_NODELAY) at the first of: a ReadEnvelope with no whole envelope
// buffered, which would wait for the peer ("flush before block"); the
// queue reaching StreamQueueCap; Flush. So a synchronous caller makes
// one write per request while pipelined envelopes share one. Hellos are
// written through, and a Stream that only writes must call Flush.
// Steady-state envelope traffic is allocation-free once the buffers
// have warmed up to the workload's message sizes.

// Stream protocol constants.
const (
	// StreamVersion is the raw-stream session-layer version emitted
	// and accepted by this package. It is deliberately separate from
	// the payload codec Version: the envelope layout can evolve
	// without touching the frame codecs, and vice versa.
	StreamVersion = 1

	// StreamFlagLookup marks a request envelope as a lookup (clear =
	// classify).
	StreamFlagLookup = 0x01
	// StreamFlagError marks a response envelope whose payload is a
	// UTF-8 error message rather than a response frame.
	StreamFlagError = 0x01
	// StreamFlagPing marks a liveness-probe envelope: the payload is
	// empty and never decoded, and the server answers with an empty
	// ping-flagged envelope echoing the id. Health probes use it to
	// verify the TCP decision plane end to end (accept, hello, framing,
	// the serving goroutine) without touching a repository. Valid on
	// both request and response envelopes; bit0 keeps its per-direction
	// meaning and is ignored when the ping bit is set.
	StreamFlagPing = 0x02
	// StreamFlagTrace marks a request envelope whose payload is
	// prefixed by a 16-byte trace context (trace id + parent span id,
	// little-endian u64 each — see internal/obs) ahead of the usual
	// wire frame; elen counts the prefix. The serving side strips the
	// prefix, records its hop span, and answers with an ordinary
	// untraced envelope. Valid on request envelopes only; a response
	// never carries the bit.
	StreamFlagTrace = 0x04

	// helloLen is the wire size of either hello.
	helloLen = 6
	// envelopeHeaderLen is id + flags, the fixed bytes elen counts
	// beyond the payload.
	envelopeHeaderLen = 5

	// StreamQueueCap bounds a Stream's write queue: an envelope that
	// brings it to the cap flushes it, so a peer that pipelines without
	// pause gets a write at least every 32 KiB, and a queue never holds
	// more than the cap plus one envelope.
	StreamQueueCap = 32 << 10
)

// streamMagic guards against cross-protocol connections (an HTTP
// client dialing the TCP port, or vice versa).
var streamMagic = [4]byte{'D', 'J', 'V', 'S'}

// errStreamTruncated reports a connection that died mid-frame.
var errStreamTruncated = errors.New("wire: stream truncated mid-frame")

// Stream frames wire envelopes over one byte-stream connection,
// owning the connection's read/write scratch and write policy (see the
// package comment). Not safe for concurrent use: callers serialize, or
// split reads and writes onto two Streams, the writing one flushing.
type Stream struct {
	br *bufio.Reader
	w  io.Writer

	payload []byte // envelope read scratch; aliased by ReadEnvelope results
	wbuf    []byte // queued envelopes, written and emptied by Flush
	queued  int    // envelopes in wbuf

	// OnFlush, if set, gets each flush's envelope count just before its
	// Write, so what it counts is visible to the reading peer.
	OnFlush func(envelopes int)

	// hdr is the envelope header read scratch. A stack array would
	// escape through the io.ReadFull interface call and cost one
	// allocation per envelope; a field on the already-heap Stream
	// does not.
	hdr [4 + envelopeHeaderLen]byte
}

// NewStream wraps one connection. The read side is buffered here;
// callers must not read from rw behind the Stream's back.
func NewStream(rw io.ReadWriter) *Stream {
	return &Stream{br: bufio.NewReaderSize(rw, 16<<10), w: rw}
}

// WriteClientHello sends the client half of the handshake. enc is the
// protocol tag: the zero value and EncodingBinary both put 1 on the
// wire, anything else is an error.
func (s *Stream) WriteClientHello(enc Encoding) error { return s.writeHello(enc) }

// WriteServerHello sends the server half of the handshake.
func (s *Stream) WriteServerHello(enc Encoding) error { return s.writeHello(enc) }

func (s *Stream) writeHello(enc Encoding) error {
	if err := enc.check(); err != nil {
		return err
	}
	var b [helloLen]byte
	copy(b[:], streamMagic[:])
	b[4] = StreamVersion
	b[5] = byte(EncodingBinary)
	_, err := s.w.Write(b[:])
	return err
}

// ReadClientHello validates the peer's hello and returns its encoding
// tag, always EncodingBinary. The errors are deliberately specific: a
// magic mismatch means a foreign protocol hit the port, a version or
// encoding mismatch means a peer from another release.
func (s *Stream) ReadClientHello() (Encoding, error) { return s.readHello() }

// ReadServerHello validates the server's hello.
func (s *Stream) ReadServerHello() (Encoding, error) { return s.readHello() }

func (s *Stream) readHello() (Encoding, error) {
	var b [helloLen]byte
	if _, err := io.ReadFull(s.br, b[:]); err != nil {
		return 0, fmt.Errorf("wire: reading stream hello: %w", err)
	}
	if b[0] != streamMagic[0] || b[1] != streamMagic[1] || b[2] != streamMagic[2] || b[3] != streamMagic[3] {
		return 0, fmt.Errorf("wire: bad stream magic %q (not a dejavu decision stream)", b[:4])
	}
	if b[4] != StreamVersion {
		return 0, fmt.Errorf("wire: unsupported stream version %d (this side speaks %d)", b[4], StreamVersion)
	}
	if Encoding(b[5]) != EncodingBinary {
		return 0, fmt.Errorf("wire: unsupported stream encoding byte %d (the only decision encoding is binary, %d)", b[5], EncodingBinary)
	}
	return EncodingBinary, nil
}

// ReadEnvelope reads one envelope, returning its request id, flags,
// and payload, after flushing the write queue if no whole envelope is
// buffered (a flush error is returned as is). The payload aliases the
// Stream's scratch — valid until the next ReadEnvelope. maxPayload
// bounds the payload size (defense against hostile or desynchronized
// peers); io.EOF before the first header byte is returned verbatim so
// callers can tell a clean close from a truncated frame.
func (s *Stream) ReadEnvelope(maxPayload int) (id uint32, flags byte, payload []byte, err error) {
	if s.queued > 0 && !s.EnvelopeBuffered() {
		if err := s.Flush(); err != nil {
			return 0, 0, nil, err
		}
	}
	hdr := s.hdr[:]
	if _, err := io.ReadFull(s.br, hdr[:1]); err != nil {
		if err == io.EOF {
			return 0, 0, nil, io.EOF // clean close between envelopes
		}
		return 0, 0, nil, errStreamTruncated
	}
	if _, err := io.ReadFull(s.br, hdr[1:]); err != nil {
		return 0, 0, nil, errStreamTruncated
	}
	elen := binary.LittleEndian.Uint32(hdr[:4])
	if elen < envelopeHeaderLen {
		return 0, 0, nil, fmt.Errorf("wire: envelope length %d shorter than its header", elen)
	}
	n := int(elen) - envelopeHeaderLen
	if n > maxPayload {
		return 0, 0, nil, fmt.Errorf("wire: envelope payload %d bytes exceeds limit %d", n, maxPayload)
	}
	id = binary.LittleEndian.Uint32(hdr[4:8])
	flags = hdr[8]
	if cap(s.payload) < n {
		s.payload = make([]byte, n)
	}
	s.payload = s.payload[:n]
	if _, err := io.ReadFull(s.br, s.payload); err != nil {
		return 0, 0, nil, errStreamTruncated
	}
	return id, flags, s.payload, nil
}

// EnvelopeBuffered reports whether a whole envelope already sits in
// the read buffer, so the next ReadEnvelope cannot block. It never
// reads from the connection. An envelope larger than the read buffer
// is never "buffered"; a malformed elen is left for ReadEnvelope to
// reject, which reads the fixed header first — hence the floor.
func (s *Stream) EnvelopeBuffered() bool {
	n := s.br.Buffered()
	if n < 4+envelopeHeaderLen {
		return false
	}
	hdr, _ := s.br.Peek(4) // cannot fail: n bytes are buffered
	return uint64(n) >= 4+uint64(binary.LittleEndian.Uint32(hdr))
}

// WriteEnvelope queues one envelope; see WriteEnvelopeParts.
func (s *Stream) WriteEnvelope(id uint32, flags byte, payload []byte) error {
	return s.WriteEnvelopeParts(id, flags, nil, payload)
}

// WriteEnvelopeParts queues prefix ++ payload under (id, flags) as one
// envelope, without requiring the caller to concatenate them first (the
// trace plane slides a 16-byte trace context ahead of an
// already-encoded frame this way, allocation-free). Both are copied, so
// the caller's buffers are free the moment this returns. It writes only
// when the queue reaches StreamQueueCap, and returns that flush's error.
func (s *Stream) WriteEnvelopeParts(id uint32, flags byte, prefix, payload []byte) error {
	b := binary.LittleEndian.AppendUint32(s.wbuf, uint32(envelopeHeaderLen+len(prefix)+len(payload)))
	b = binary.LittleEndian.AppendUint32(b, id)
	b = append(b, flags)
	b = append(b, prefix...)
	s.wbuf = append(b, payload...)
	s.queued++
	if len(s.wbuf) >= StreamQueueCap {
		return s.Flush()
	}
	return nil
}

// Flush writes every queued envelope in a single Write call and
// empties the queue (also on error: a failed stream is dead, its
// queue is not retried). A Flush with nothing queued writes nothing.
func (s *Stream) Flush() error {
	if s.queued == 0 {
		return nil
	}
	if s.OnFlush != nil {
		s.OnFlush(s.queued)
	}
	_, err := s.w.Write(s.wbuf)
	s.wbuf, s.queued = s.wbuf[:0], 0
	return err
}
