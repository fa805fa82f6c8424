// Package wire is the protocol both ends share. admin.go and http.go
// hold the admin protocol — its JSON documents and, written once for
// dejavud and the front, its HTTP route table and request policy. The
// rest is the decision plane: the single
// transport-agnostic codec stack shared by dejavud (internal/server),
// the client library (internal/client), and the decision proxy
// (internal/proxy). A decision request carries a batch of signature
// vectors plus an interference bucket and a template id; a decision
// response carries one classify/lookup decision per signature, tagged
// with the repository version that served the batch.
//
// There is one decision encoding on every transport: the binary
// columnar batch frame (application/x-dejavu-batch over HTTP, the same
// bytes inside a stream envelope over raw TCP) — a length-prefixed
// frame holding the signature batch as one dense little-endian float64
// block (values cross the wire bit-exactly, no parse/format tax) with
// varint ids for template length, bucket, row/column counts, classes,
// and allocation types. The HTTP Content-Type is a guard, not a
// negotiation: decision endpoints answer anything else with 415.
//
// Encoding and decoding are allocation-free at steady state on both
// the client and the server side of the exchange: all codec state
// lives in caller-owned scratch that warms up to the workload's batch
// size (TestBinaryCodecZeroAlloc and BenchmarkCodec pin 0 allocs/op).
//
// Frame layouts (all multi-byte integers little-endian, "uv" =
// unsigned LEB128 varint, "zv" = zigzag varint):
//
//	request  := len:u32 magic:0xDC ver:0x01
//	            uv(len(template)) template-bytes
//	            uv(bucket) uv(rows) uv(width)
//	            rows×width float64 values (row-major dense block)
//	response := len:u32 magic:0xDD ver:0x01 flags:u8   (bit0 = lookup)
//	            uv(repoVersion) uv(rows)
//	            rows×u8 row-flags                      (bit0 unforeseen, bit1 hit)
//	            rows×zv class                          (-1 = novelty rejection)
//	            rows×float64 certainty
//	            per hit row, in row order: uv(typeID) uv(count)
//
// The u32 length prefix counts every byte after itself. HTTP framing
// (Content-Length) makes it redundant there, but it keeps the frames
// self-delimiting for raw-stream transports and lets decoders reject
// truncated bodies before touching the payload.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/cloud"
)

// ContentTypeBinary is the only Content-Type decision endpoints accept
// and the one they answer with.
const ContentTypeBinary = "application/x-dejavu-batch"

// Protocol framing constants.
const (
	reqMagic  = 0xDC
	respMagic = 0xDD
	// Version is the binary protocol version emitted and accepted by
	// this codec. Decoders reject frames with any other version so a
	// future layout change fails loudly instead of misparsing.
	Version = 1
)

// maxRows bounds a decoded batch (defense against hostile frames; the
// server's body-size limit bounds honest ones).
const maxRows = 1 << 20

// maxValues bounds rows×width.
const maxValues = 1 << 24

// minRowBytes is the smallest encoding of one response row: flags,
// a one-byte class varint, and the certainty.
const minRowBytes = 1 + 1 + 8

// Encoding is the protocol tag of the decision codec: the enc byte of
// the stream hello. It has one value; the zero value means the same
// thing, so configurations that never set it are valid.
type Encoding uint8

// EncodingBinary is the binary columnar batch encoding.
const EncodingBinary Encoding = 1

func (e Encoding) check() error {
	if e > EncodingBinary {
		return fmt.Errorf("wire: unknown encoding %d (the only decision encoding is binary, %d)", e, EncodingBinary)
	}
	return nil
}

// EncodingForContentType guards a decision endpoint: exactly
// ContentTypeBinary (parameters after ';' ignored) is accepted, and
// anything else is an error naming the accepted type — the 415 body.
func EncodingForContentType(ct string) (Encoding, error) {
	if base, _, _ := strings.Cut(ct, ";"); base != ContentTypeBinary {
		return 0, fmt.Errorf("wire: unsupported Content-Type %q: decision endpoints accept only %s", ct, ContentTypeBinary)
	}
	return EncodingBinary, nil
}

// Request is the decoded form of a decision request, backed entirely
// by reusable scratch storage: row i of the batch is
// vals[ends[i-1]:ends[i]] (ends[-1] meaning 0). A decoded request is
// rectangular with at least one row and one column; a caller-built one
// is whatever AppendRow made it, and AppendBinary rejects ragged rows.
type Request struct {
	// Template routes the batch to one of the server's templates;
	// empty means the server's sole (or "default") template. The
	// slice aliases either the request body or the tmpl scratch —
	// valid until the next Reset.
	Template []byte
	// Bucket is the interference bucket for lookups.
	Bucket int

	vals []float64
	ends []int
	tmpl []byte // scratch backing Template for client-built requests
}

// Rows returns the batch size.
func (r *Request) Rows() int { return len(r.ends) }

// Row returns the i-th signature of the batch.
func (r *Request) Row(i int) []float64 {
	start := 0
	if i > 0 {
		start = r.ends[i-1]
	}
	return r.vals[start:r.ends[i]]
}

// Reset clears the request for reuse, keeping capacity.
func (r *Request) Reset() {
	r.Template = nil
	r.Bucket = 0
	r.vals = r.vals[:0]
	r.ends = r.ends[:0]
}

// SetTemplate records the routing template without allocating at
// steady state (the name is copied into reusable scratch).
func (r *Request) SetTemplate(name string) {
	r.tmpl = append(r.tmpl[:0], name...)
	r.Template = r.tmpl
}

// AppendRow adds one signature to the batch.
func (r *Request) AppendRow(vals []float64) {
	r.vals = append(r.vals, vals...)
	r.ends = append(r.ends, len(r.vals))
}

// Rectangular reports whether every row has the same width, returning
// that width. The binary encoding requires it.
func (r *Request) Rectangular() (int, bool) {
	if len(r.ends) == 0 {
		return 0, true
	}
	w := r.ends[0]
	for i := 1; i < len(r.ends); i++ {
		if r.ends[i]-r.ends[i-1] != w {
			return 0, false
		}
	}
	return w, true
}

// AppendBinary encodes the request as one binary frame appended to
// dst. The batch must be rectangular.
func (r *Request) AppendBinary(dst []byte) ([]byte, error) {
	width, ok := r.Rectangular()
	if !ok {
		return dst, errors.New("wire: binary encoding requires a rectangular batch")
	}
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix backpatched below
	dst = append(dst, reqMagic, Version)
	dst = appendUvarint(dst, uint64(len(r.Template)))
	dst = append(dst, r.Template...)
	dst = appendUvarint(dst, uint64(r.Bucket))
	dst = appendUvarint(dst, uint64(len(r.ends)))
	dst = appendUvarint(dst, uint64(width))
	for _, v := range r.vals {
		dst = appendF64(dst, v)
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst, nil
}

// DecodeBinary fills the request from one binary frame, reusing the
// request's buffers. The Template slice aliases body.
func (r *Request) DecodeBinary(body []byte) error {
	r.Reset()
	d := bdecoder{b: body}
	if err := d.frameHeader(reqMagic); err != nil {
		return err
	}
	tlen, err := d.uvarint()
	if err != nil {
		return err
	}
	if tlen > maxTemplateLen {
		return fmt.Errorf("wire: template id of %d bytes exceeds limit %d", tlen, maxTemplateLen)
	}
	if r.Template, err = d.bytes(int(tlen)); err != nil {
		return err
	}
	bucket, err := d.uvarint()
	if err != nil {
		return err
	}
	if bucket > 1<<20 {
		return fmt.Errorf("wire: bucket %d is not a small non-negative integer", bucket)
	}
	r.Bucket = int(bucket)
	rows, err := d.uvarint()
	if err != nil {
		return err
	}
	width, err := d.uvarint()
	if err != nil {
		return err
	}
	if rows == 0 {
		return errors.New("wire: request contains no signatures")
	}
	// Bound each factor before multiplying: a hostile frame with
	// rows×width wrapping uint64 must not sneak past the product
	// check and panic the row indexer.
	if rows > maxRows || width == 0 || width > maxValues || rows*width > maxValues {
		return fmt.Errorf("wire: batch of %d×%d values exceeds limits", rows, width)
	}
	n := int(rows * width)
	// The value block is the rest of the frame: check before sizing the
	// scratch, so a short frame cannot make the decoder allocate more
	// than the bytes it was handed.
	if len(d.b)-d.i < 8*n {
		return errTruncated
	}
	if cap(r.vals) < n {
		r.vals = make([]float64, 0, n)
	}
	r.vals = r.vals[:n]
	for i := range r.vals {
		v, err := d.f64()
		if err != nil {
			return err
		}
		r.vals[i] = v
	}
	for i := 1; i <= int(rows); i++ {
		r.ends = append(r.ends, i*int(width))
	}
	return d.done()
}

// maxTemplateLen bounds a template id on the wire.
const maxTemplateLen = 256

// Decision is one classify/lookup result row.
type Decision struct {
	// Class is the matched workload class (-1 on novelty rejection).
	Class int
	// Certainty is the classifier confidence in [0, 1].
	Certainty float64
	// Unforeseen reports that the signature looks unlike every
	// learned class.
	Unforeseen bool
	// Hit reports a usable cached allocation (lookups only).
	Hit bool
	// Type and Count are the cached allocation; valid only when Hit.
	Type  cloud.TypeID
	Count int
}

// Response is the decoded form of a decision response. Results reuses
// capacity across Resets; Decision holds no pointers, so a warmed
// response decodes without allocating.
type Response struct {
	// Version is the repository snapshot version that served the
	// batch.
	Version uint64
	// Lookup selects the response vocabulary: lookup rows carry
	// hit/type/count, classify rows do not.
	Lookup bool
	// Results holds one decision per request row.
	Results []Decision
}

// Reset clears the response for reuse, keeping capacity.
func (r *Response) Reset() {
	r.Version = 0
	r.Lookup = false
	r.Results = r.Results[:0]
}

// AppendBinary encodes the response as one binary frame appended to
// dst.
func (r *Response) AppendBinary(dst []byte) []byte {
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	var flags byte
	if r.Lookup {
		flags |= 1
	}
	dst = append(dst, respMagic, Version, flags)
	dst = appendUvarint(dst, r.Version)
	dst = appendUvarint(dst, uint64(len(r.Results)))
	for i := range r.Results {
		var f byte
		if r.Results[i].Unforeseen {
			f |= 1
		}
		if r.Results[i].Hit {
			f |= 2
		}
		dst = append(dst, f)
	}
	for i := range r.Results {
		dst = appendZigzag(dst, int64(r.Results[i].Class))
	}
	for i := range r.Results {
		dst = appendF64(dst, r.Results[i].Certainty)
	}
	for i := range r.Results {
		if r.Results[i].Hit {
			dst = appendUvarint(dst, uint64(r.Results[i].Type))
			dst = appendUvarint(dst, uint64(r.Results[i].Count))
		}
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst
}

// DecodeBinary fills the response from one binary frame, reusing the
// Results buffer.
func (r *Response) DecodeBinary(body []byte) error {
	r.Reset()
	d := bdecoder{b: body}
	if err := d.frameHeader(respMagic); err != nil {
		return err
	}
	flags, err := d.u8()
	if err != nil {
		return err
	}
	r.Lookup = flags&1 != 0
	if r.Version, err = d.uvarint(); err != nil {
		return err
	}
	rows, err := d.uvarint()
	if err != nil {
		return err
	}
	if rows > maxRows {
		return fmt.Errorf("wire: response of %d rows exceeds limit", rows)
	}
	n := int(rows)
	// Every row costs at least minRowBytes of frame; same allocation
	// bound as the request decoder's.
	if len(d.b)-d.i < minRowBytes*n {
		return errTruncated
	}
	if cap(r.Results) < n {
		r.Results = make([]Decision, 0, n)
	}
	r.Results = r.Results[:n]
	for i := range r.Results {
		f, err := d.u8()
		if err != nil {
			return err
		}
		r.Results[i] = Decision{Unforeseen: f&1 != 0, Hit: f&2 != 0}
	}
	for i := range r.Results {
		c, err := d.zigzag()
		if err != nil {
			return err
		}
		r.Results[i].Class = int(c)
	}
	for i := range r.Results {
		v, err := d.f64()
		if err != nil {
			return err
		}
		r.Results[i].Certainty = v
	}
	for i := range r.Results {
		if !r.Results[i].Hit {
			continue
		}
		typ, err := d.uvarint()
		if err != nil {
			return err
		}
		if typ > uint64(len(catalog)) {
			return fmt.Errorf("wire: unknown allocation type id %d", typ)
		}
		count, err := d.uvarint()
		if err != nil {
			return err
		}
		if count > 1<<20 {
			return fmt.Errorf("wire: allocation count %d out of range", count)
		}
		r.Results[i].Type = cloud.TypeID(typ)
		r.Results[i].Count = int(count)
	}
	return d.done()
}

// Decode is DecodeBinary behind the protocol tag.
//
// Deprecated: call DecodeBinary; this remains for callers that still
// carry an Encoding value.
func (r *Response) Decode(enc Encoding, body []byte) error {
	if err := enc.check(); err != nil {
		return err
	}
	return r.DecodeBinary(body)
}

// --- binary primitives ---

func appendF64(dst []byte, v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return append(dst, b[:]...)
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func appendZigzag(dst []byte, v int64) []byte {
	return appendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

// catalog bounds the allocation type ids a response may carry.
var catalog = cloud.Catalog()

var errTruncated = errors.New("wire: truncated body")

// bdecoder walks one binary frame.
type bdecoder struct {
	b []byte
	i int
}

// frameHeader validates the length prefix, magic, and version.
func (d *bdecoder) frameHeader(magic byte) error {
	if len(d.b) < 6 {
		return errTruncated
	}
	n := binary.LittleEndian.Uint32(d.b)
	if int(n) != len(d.b)-4 {
		return fmt.Errorf("wire: frame length %d does not match body length %d", n, len(d.b)-4)
	}
	if d.b[4] != magic {
		return fmt.Errorf("wire: bad frame magic 0x%02X", d.b[4])
	}
	if d.b[5] != Version {
		return fmt.Errorf("wire: unsupported protocol version %d", d.b[5])
	}
	d.i = 6
	return nil
}

func (d *bdecoder) u8() (byte, error) {
	if d.i >= len(d.b) {
		return 0, errTruncated
	}
	v := d.b[d.i]
	d.i++
	return v, nil
}

func (d *bdecoder) uvarint() (uint64, error) {
	var v uint64
	for shift := 0; shift < 64; shift += 7 {
		if d.i >= len(d.b) {
			return 0, errTruncated
		}
		c := d.b[d.i]
		d.i++
		v |= uint64(c&0x7F) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("wire: varint overflow")
}

func (d *bdecoder) zigzag() (int64, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(v>>1) ^ -int64(v&1), nil
}

func (d *bdecoder) f64() (float64, error) {
	if d.i+8 > len(d.b) {
		return 0, errTruncated
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.i:]))
	d.i += 8
	return v, nil
}

func (d *bdecoder) bytes(n int) ([]byte, error) {
	if d.i+n > len(d.b) {
		return nil, errTruncated
	}
	v := d.b[d.i : d.i+n]
	d.i += n
	return v, nil
}

// done verifies the frame was fully consumed — trailing garbage means
// a framing bug on the peer.
func (d *bdecoder) done() error {
	if d.i != len(d.b) {
		return fmt.Errorf("wire: %d trailing bytes after frame", len(d.b)-d.i)
	}
	return nil
}
