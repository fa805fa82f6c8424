package obs

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// TraceHeader is the HTTP header carrying a trace context, in its
// canonical MIME form ("DejaVu-Trace" on the wire is equivalent —
// HTTP header names are case-insensitive; the canonical spelling
// keeps net/http's Header.Get allocation-free on the hot path).
const TraceHeader = "Dejavu-Trace"

// WireContextLen is the byte length of a trace context on the raw-TCP
// stream plane: when an envelope carries wire.StreamFlagTrace, its
// payload is prefixed by exactly this many bytes (trace id, then span
// id, both little-endian u64) ahead of the usual wire frame.
const WireContextLen = 16

// HeaderContextLen is len(TraceContext.AppendHeader): 32 hex chars.
const HeaderContextLen = 32

// TraceContext identifies one sampled decision (Trace) and the span
// of the hop that sent it (Span — the receiver's parent). The zero
// value means "not sampled".
type TraceContext struct {
	Trace uint64
	Span  uint64
}

// Valid reports whether the context marks a sampled request.
func (tc TraceContext) Valid() bool { return tc.Trace != 0 }

// Child allocates the receiving hop's own span id under the same
// trace: record the hop's Span with ID child.Span / Parent tc.Span,
// and propagate child downstream.
func Child(tc TraceContext) TraceContext {
	return TraceContext{Trace: tc.Trace, Span: NextID()}
}

// AppendWire appends the 16-byte stream-plane form.
func (tc TraceContext) AppendWire(dst []byte) []byte {
	var b [WireContextLen]byte
	binary.LittleEndian.PutUint64(b[0:8], tc.Trace)
	binary.LittleEndian.PutUint64(b[8:16], tc.Span)
	return append(dst, b[:]...)
}

// ParseWireContext decodes the 16-byte stream-plane form from the
// front of b.
func ParseWireContext(b []byte) (TraceContext, bool) {
	if len(b) < WireContextLen {
		return TraceContext{}, false
	}
	tc := TraceContext{
		Trace: binary.LittleEndian.Uint64(b[0:8]),
		Span:  binary.LittleEndian.Uint64(b[8:16]),
	}
	return tc, tc.Valid()
}

const hexDigits = "0123456789abcdef"

// AppendHeader appends the 32-hex-char HTTP header form (trace id
// then span id, big-endian nibble order) without allocating.
func (tc TraceContext) AppendHeader(dst []byte) []byte {
	for _, v := range [2]uint64{tc.Trace, tc.Span} {
		for shift := 60; shift >= 0; shift -= 4 {
			dst = append(dst, hexDigits[(v>>uint(shift))&0xf])
		}
	}
	return dst
}

// ParseHeaderContext decodes the 32-hex-char header form.
func ParseHeaderContext(s string) (TraceContext, bool) {
	if len(s) != HeaderContextLen {
		return TraceContext{}, false
	}
	var ids [2]uint64
	for i := 0; i < HeaderContextLen; i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return TraceContext{}, false
		}
		ids[i/16] = ids[i/16]<<4 | d
	}
	tc := TraceContext{Trace: ids[0], Span: ids[1]}
	return tc, tc.Valid()
}

// HexID renders a span/trace id as 16 hex chars in JSON so trace
// dumps are grep-able and ids survive JavaScript number precision.
type HexID uint64

// MarshalJSON renders "%016x".
func (id HexID) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", fmt.Sprintf("%016x", uint64(id)))), nil
}

// UnmarshalJSON parses the quoted hex form.
func (id *HexID) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	var v uint64
	if _, err := fmt.Sscanf(s, "%x", &v); err != nil {
		return err
	}
	*id = HexID(v)
	return nil
}

// Span is one hop's slice of a sampled decision: which component did
// what, when, and for how long. Pointer-free so ring slots recycle
// without garbage.
type Span struct {
	Trace      HexID  `json:"trace"`
	ID         HexID  `json:"span"`
	Parent     HexID  `json:"parent"`
	Component  string `json:"component"`
	Op         string `json:"op"`
	Start      int64  `json:"start_unix_nano"`
	DurationNS int64  `json:"duration_ns"`
}

// SpanRing is a fixed-size per-process trace buffer: the newest
// spans win, old ones fall off. Mutex-guarded — only sampled requests
// record spans, so the serving hot path never touches the lock. A nil
// ring ignores records, so callers don't guard.
type SpanRing struct {
	mu    sync.Mutex
	buf   []Span
	total uint64
}

// DefaultSpanRingSize is the per-process ring capacity components use
// unless configured otherwise.
const DefaultSpanRingSize = 4096

// NewSpanRing sizes a ring (capacity < 16 clamps to 16).
func NewSpanRing(capacity int) *SpanRing {
	if capacity < 16 {
		capacity = 16
	}
	return &SpanRing{buf: make([]Span, 0, capacity)}
}

// Record appends one span, overwriting the oldest once full.
func (r *SpanRing) Record(sp Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, sp)
	} else {
		r.buf[r.total%uint64(cap(r.buf))] = sp
	}
	r.total++
	r.mu.Unlock()
}

// RecordHop records one hop's span: the hop received parent, derived
// child (obs.Child) before calling downstream, and measured start/d
// around its own work.
func (r *SpanRing) RecordHop(parent, child TraceContext, component, op string, start time.Time, d time.Duration) {
	r.Record(Span{
		Trace:      HexID(parent.Trace),
		ID:         HexID(child.Span),
		Parent:     HexID(parent.Span),
		Component:  component,
		Op:         op,
		Start:      start.UnixNano(),
		DurationNS: int64(d),
	})
}

// Total reports how many spans were ever recorded (≥ len(Spans())).
func (r *SpanRing) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Spans copies the buffered spans out, oldest first.
func (r *SpanRing) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	head := int(r.total % uint64(cap(r.buf)))
	out = append(out, r.buf[head:]...)
	return append(out, r.buf[:head]...)
}

// TraceDoc is the JSON document /v1/trace endpoints serve.
type TraceDoc struct {
	Component string `json:"component"`
	Total     uint64 `json:"total"`
	Spans     []Span `json:"spans"`
}

// WriteJSON dumps the ring as a TraceDoc.
func (r *SpanRing) WriteJSON(w io.Writer, component string) error {
	doc := TraceDoc{Component: component, Total: r.Total(), Spans: r.Spans()}
	if doc.Spans == nil {
		doc.Spans = []Span{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
