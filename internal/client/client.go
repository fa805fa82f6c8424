// Package client is the dejavu decision-plane client library: the
// one way commands and control planes talk to a dejavud daemon.
// It owns a pool of persistent connections, speaks the shared wire
// protocol (internal/wire), retries transport
// failures with exponential backoff, and exposes each remote template
// as a core.DecisionSource so the same controller code that drives an
// in-process repository drives a remote daemon.
//
// The transport is a deliberately lean HTTP/1.1 implementation over
// pooled TCP connections rather than net/http: the decision path's
// request build, response framing, and wire decode all run in
// caller-owned scratch, so a steady-state batched lookup performs
// zero heap allocations end to end on the client side
// (TestClientLookupZeroAlloc pins this against a canned-response
// server). Control-plane calls (install, stats, templates, put, get)
// use encoding/json — they are off the hot path.
//
// A template source also answers core.BatchSource: a caller that holds
// several signatures for one bucket (the fleet's lockstep blocks) sends
// them as one frame and pays one round trip for all of them.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/wire"
)

const (
	// dialTimeout bounds connection establishment.
	dialTimeout = 5 * time.Second
	// requestTimeout bounds one round trip.
	requestTimeout = 30 * time.Second
	// firstBackoff is the first retry's delay, doubling per attempt up
	// to maxBackoff: without a cap a long retry budget sleeps for the
	// full exponential sum during an outage.
	firstBackoff = 10 * time.Millisecond
	maxBackoff   = time.Second
)

// Config assembles a Client.
type Config struct {
	// Addr is the dejavud HTTP host:port. Required unless the client
	// is decisions-only over TCP (TCPAddr set, or Addr itself given
	// as "tcp://host:port"); admin calls (install, stats, snapshot)
	// always use this HTTP plane.
	Addr string
	// TCPAddr is the daemon's raw-TCP decision port, host:port with
	// an optional tcp:// prefix. When it is set, decisions travel as
	// wire envelopes over persistent raw TCP connections; otherwise
	// they are HTTP/1.1 POSTs to Addr. The admin plane stays on Addr.
	TCPAddr string
	// Encoding is the decision codec's protocol tag. There is one
	// codec: the zero value and wire.EncodingBinary both mean binary,
	// anything else fails New.
	//
	// Deprecated: leave it unset. The field goes once benchmark/ (frozen
	// against this API) stops setting it.
	Encoding wire.Encoding
	// MaxIdleConns bounds the connection pool (default 8). More
	// concurrent requests than this still proceed — each dials its
	// own connection — but only MaxIdleConns survive for reuse.
	MaxIdleConns int
	// Retries is how many times a transport failure is retried on a
	// fresh connection (default 2). HTTP-level errors (4xx/5xx) are
	// never retried.
	Retries int
}

func (c *Config) defaults() error {
	// "tcp://host:port" as the address is shorthand for a
	// decisions-only TCP client (no admin plane).
	if strings.HasPrefix(c.Addr, "tcp://") {
		if c.TCPAddr == "" {
			c.TCPAddr = strings.TrimPrefix(c.Addr, "tcp://")
		}
		c.Addr = ""
	}
	c.TCPAddr = strings.TrimPrefix(c.TCPAddr, "tcp://")
	if c.Addr == "" && c.TCPAddr == "" {
		return errors.New("client: Config.Addr must be set")
	}
	if c.Encoding > wire.EncodingBinary {
		return fmt.Errorf("client: unknown Config.Encoding %d (the only decision encoding is binary)", c.Encoding)
	}
	if c.MaxIdleConns <= 0 {
		c.MaxIdleConns = 8
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	return nil
}

// Client is a pooled dejavud client; safe for concurrent use.
type Client struct {
	cfg      Config
	idle     chan *conn    // pooled HTTP connections
	tcpIdle  chan *tcpConn // pooled raw-TCP decision connections
	payloads sync.Pool     // *[]byte: decision payload encode scratch
	closed   atomic.Bool
	// closeCh is closed by Close so retries sleeping in backoff wake
	// immediately instead of holding shutdown for the backoff sum.
	closeCh chan struct{}

	// jitter randomizes retry backoff so coordinated clients do not
	// retry in lockstep: each client seeds its own stream from
	// obs.NextID, never from a seeded simulation stream, so the jitter
	// cannot perturb a deterministic run's decisions. Guarded by
	// jitterMu: the retry path is cold.
	jitterMu sync.Mutex
	jitter   *rand.Rand

	// retried counts transport-level retries, for telemetry/tests.
	retried atomic.Int64

	// Local instrumentation (obs histograms are atomic-add only, so
	// the zero-alloc decision path stays zero-alloc with them live).
	reqLat    obs.Histogram // whole Decide: encode, transport (incl. retries), decode
	retryWait obs.Histogram // time spent sleeping in retry backoff
	decides   atomic.Int64  // Decide calls
}

// New validates the configuration and returns a client. No connection
// is dialed until the first call.
func New(cfg Config) (*Client, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	c := &Client{
		cfg:     cfg,
		idle:    make(chan *conn, cfg.MaxIdleConns),
		tcpIdle: make(chan *tcpConn, cfg.MaxIdleConns),
		closeCh: make(chan struct{}),
		jitter:  rng.New(int64(obs.NextID())),
	}
	return c, nil
}

// Close drops the idle pools and wakes any retry sleeping in backoff.
// In-flight requests finish on their own connections.
func (c *Client) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	close(c.closeCh)
	for {
		select {
		case cn := <-c.idle:
			cn.nc.Close()
		case cn := <-c.tcpIdle:
			cn.nc.Close()
		default:
			return
		}
	}
}

// LocalStats is the client's own instrumentation snapshot — latency
// digests recorded by this process, as opposed to Stats(), which
// fetches the daemon's /v1/stats document.
type LocalStats struct {
	// Decides counts Decide calls (each one batch).
	Decides int64 `json:"decides"`
	// Retries counts transport-level retry attempts.
	Retries int64 `json:"retries"`
	// Request digests whole-Decide latency: encode, transport
	// (including retries), decode.
	Request obs.Summary `json:"request"`
	// RetryWait digests time spent sleeping in retry backoff.
	RetryWait obs.Summary `json:"retry_wait"`
}

// StatsSnapshot digests the client's local histograms.
func (c *Client) StatsSnapshot() LocalStats {
	return LocalStats{
		Decides:   c.decides.Load(),
		Retries:   c.retried.Load(),
		Request:   c.reqLat.Snapshot().Summary(),
		RetryWait: c.retryWait.Snapshot().Summary(),
	}
}

// conn is one pooled connection plus its per-connection scratch: the
// request build buffer and the response body buffer warm up to the
// workload's message sizes and are reused for every request the
// connection carries.
type conn struct {
	nc   net.Conn
	br   *bufio.Reader
	wbuf []byte // request head+payload build scratch
	body []byte // response body scratch
	// dead marks a connection the peer half closed (Connection:
	// close): its body is still deliverable, but release must drop it
	// instead of pooling a closed socket.
	dead bool
}

func (c *Client) dial() (*conn, error) {
	nc, err := net.DialTimeout("tcp", c.cfg.Addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", c.cfg.Addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return &conn{nc: nc, br: bufio.NewReaderSize(nc, 16<<10)}, nil
}

// get borrows a pooled connection or dials a fresh one.
func (c *Client) get() (*conn, error) {
	select {
	case cn := <-c.idle:
		return cn, nil
	default:
		return c.dial()
	}
}

// release returns a healthy connection to the pool (closing it when
// it is dead, the pool is full, or the client is closed).
func (c *Client) release(cn *conn, healthy bool) {
	if cn == nil {
		return
	}
	if !healthy || cn.dead || c.closed.Load() {
		cn.nc.Close()
		return
	}
	select {
	case c.idle <- cn:
	default:
		cn.nc.Close()
	}
}

// roundTrip performs one HTTP exchange, retrying transport failures
// on fresh connections with exponential backoff. On success the
// returned conn holds the response body in its scratch; the caller
// must parse body before calling release. A non-2xx status is
// returned as *wire.APIError with the connection already released —
// HTTP-level errors are never retried. A valid tc rides the request as
// a DejaVu-Trace header (decision sampling; admin calls pass the zero
// context).
func (c *Client) roundTrip(method, path, contentType string, payload []byte, tc obs.TraceContext) (*conn, []byte, error) {
	if c.cfg.Addr == "" {
		return nil, nil, errors.New("client: no HTTP address configured (decisions-only tcp:// client)")
	}
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			if err := c.backoffWait(attempt); err != nil {
				return nil, nil, fmt.Errorf("%w (last transport error: %v)", err, lastErr)
			}
		}
		cn, err := c.get()
		if err != nil {
			lastErr = err
			continue
		}
		status, body, reusable, err := c.exchange(cn, method, path, contentType, payload, tc)
		if err != nil {
			cn.nc.Close()
			lastErr = err
			continue
		}
		if status < 200 || status > 299 {
			apiErr := &wire.APIError{Status: status, Body: string(body)}
			c.release(cn, reusable)
			return nil, nil, apiErr
		}
		if !reusable {
			// The caller still parses body (it lives in cn scratch);
			// the dead mark keeps release from pooling the closed
			// socket afterwards.
			cn.nc.Close()
			cn.dead = true
		}
		return cn, body, nil
	}
	return nil, nil, fmt.Errorf("client: %s %s failed after %d attempts: %w",
		method, path, c.cfg.Retries+1, lastErr)
}

// errClosed reports a Close arriving while a retry slept in backoff.
var errClosed = errors.New("client: closed")

// backoff is the delay before retry number attempt (1-based), honoring
// three policies at once: the delay doubles per attempt, is capped at
// maxBackoff, and carries jitter in [½d, d] drawn from jitter so
// coordinated clients spread their retries instead of stampeding a
// recovering daemon in lockstep.
func backoff(attempt int, jitter *rand.Rand) time.Duration {
	d := firstBackoff << (attempt - 1)
	if d > maxBackoff || d <= 0 { // <=0: shift overflow
		d = maxBackoff
	}
	return d/2 + time.Duration(jitter.Int63n(int64(d/2)+1))
}

// backoffWait sleeps for backoff(attempt) on the client's jitter
// stream. The sleep aborts immediately when Close is called.
func (c *Client) backoffWait(attempt int) error {
	c.retried.Add(1)
	c.jitterMu.Lock()
	d := backoff(attempt, c.jitter)
	c.jitterMu.Unlock()
	start := time.Now()
	defer func() { c.retryWait.Record(time.Since(start)) }()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.closeCh:
		return errClosed
	}
}

// exchange writes one request and reads one response on cn. The
// returned body aliases cn.body; reusable reports whether the
// connection may go back to the pool (false after Connection: close).
func (c *Client) exchange(cn *conn, method, path, contentType string, payload []byte, tc obs.TraceContext) (status int, body []byte, reusable bool, err error) {
	deadline := time.Now().Add(requestTimeout)
	if err := cn.nc.SetDeadline(deadline); err != nil {
		return 0, nil, false, err
	}

	w := cn.wbuf[:0]
	w = append(w, method...)
	w = append(w, ' ')
	w = append(w, path...)
	w = append(w, " HTTP/1.1\r\nHost: "...)
	w = append(w, c.cfg.Addr...)
	if contentType != "" {
		w = append(w, "\r\nContent-Type: "...)
		w = append(w, contentType...)
	}
	if tc.Valid() {
		w = append(w, "\r\n"+obs.TraceHeader+": "...)
		w = tc.AppendHeader(w)
	}
	w = append(w, "\r\nContent-Length: "...)
	w = strconv.AppendInt(w, int64(len(payload)), 10)
	w = append(w, "\r\n\r\n"...)
	w = append(w, payload...)
	cn.wbuf = w
	if _, err := cn.nc.Write(w); err != nil {
		return 0, nil, false, err
	}

	// Status line.
	line, err := readLine(cn.br)
	if err != nil {
		return 0, nil, false, err
	}
	status, ok := parseStatusLine(line)
	if !ok {
		return 0, nil, false, fmt.Errorf("client: malformed status line %q", line)
	}

	// Headers: Content-Length frames the body; chunked responses are
	// decoded for robustness (the daemon sets Content-Length on every
	// decision response, so the hot path never takes that branch).
	contentLength := -1
	chunked := false
	connClose := false
	for {
		line, err := readLine(cn.br)
		if err != nil {
			return 0, nil, false, err
		}
		if len(line) == 0 {
			break
		}
		if v, ok := headerValue(line, "content-length"); ok {
			n, ok := atoiBytes(v)
			if !ok {
				return 0, nil, false, fmt.Errorf("client: bad Content-Length %q", v)
			}
			contentLength = n
		} else if v, ok := headerValue(line, "transfer-encoding"); ok {
			chunked = asciiEqualFold(v, "chunked")
		} else if v, ok := headerValue(line, "connection"); ok {
			connClose = asciiEqualFold(v, "close")
		}
	}

	body = cn.body[:0]
	switch {
	case chunked:
		if body, err = readChunked(cn.br, body); err != nil {
			return 0, nil, false, err
		}
	case contentLength >= 0:
		if cap(body) < contentLength {
			body = make([]byte, 0, contentLength)
		}
		body = body[:contentLength]
		if _, err := ioReadFull(cn.br, body); err != nil {
			return 0, nil, false, err
		}
	default:
		return 0, nil, false, errors.New("client: response without Content-Length or chunked framing")
	}
	cn.body = body
	return status, body, !connClose, nil
}

// readLine reads one CRLF-terminated line, returning it without the
// terminator. The slice aliases the bufio buffer — valid until the
// next read.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if n := len(line); n >= 2 && line[n-2] == '\r' {
		return line[:n-2], nil
	}
	return line[:len(line)-1], nil
}

// parseStatusLine extracts the status code from "HTTP/1.1 200 OK".
func parseStatusLine(line []byte) (int, bool) {
	sp := -1
	for i, c := range line {
		if c == ' ' {
			sp = i
			break
		}
	}
	if sp < 0 || len(line) < sp+4 {
		return 0, false
	}
	code := 0
	for _, c := range line[sp+1 : sp+4] {
		if c < '0' || c > '9' {
			return 0, false
		}
		code = code*10 + int(c-'0')
	}
	return code, true
}

// headerValue matches "Name: value" case-insensitively on the name,
// returning the trimmed value.
func headerValue(line []byte, lowerName string) ([]byte, bool) {
	if len(line) < len(lowerName)+1 {
		return nil, false
	}
	for i := 0; i < len(lowerName); i++ {
		c := line[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lowerName[i] {
			return nil, false
		}
	}
	if line[len(lowerName)] != ':' {
		return nil, false
	}
	v := line[len(lowerName)+1:]
	for len(v) > 0 && (v[0] == ' ' || v[0] == '\t') {
		v = v[1:]
	}
	for len(v) > 0 && (v[len(v)-1] == ' ' || v[len(v)-1] == '\t') {
		v = v[:len(v)-1]
	}
	return v, true
}

// atoiBytes parses a non-negative decimal without allocating (the
// strconv equivalents need a string).
func atoiBytes(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

func asciiEqualFold(b []byte, lower string) bool {
	if len(b) != len(lower) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// ioReadFull is io.ReadFull without the interface indirection cost on
// the hot path (and without importing io for one call).
func ioReadFull(br *bufio.Reader, dst []byte) (int, error) {
	n := 0
	for n < len(dst) {
		m, err := br.Read(dst[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// readChunked decodes a chunked transfer-encoded body.
func readChunked(br *bufio.Reader, dst []byte) ([]byte, error) {
	for {
		line, err := readLine(br)
		if err != nil {
			return dst, err
		}
		size := 0
		for _, c := range line {
			switch {
			case '0' <= c && c <= '9':
				size = size<<4 | int(c-'0')
			case 'a' <= c && c <= 'f':
				size = size<<4 | int(c-'a'+10)
			case 'A' <= c && c <= 'F':
				size = size<<4 | int(c-'A'+10)
			case c == ';':
				goto parsed // chunk extensions are ignored
			default:
				return dst, fmt.Errorf("client: bad chunk size %q", line)
			}
			if size > 1<<30 {
				return dst, errors.New("client: chunk too large")
			}
		}
	parsed:
		if size == 0 {
			// Trailer section: read to the blank line.
			for {
				line, err := readLine(br)
				if err != nil {
					return dst, err
				}
				if len(line) == 0 {
					return dst, nil
				}
			}
		}
		start := len(dst)
		for cap(dst) < start+size {
			dst = append(dst[:cap(dst)], 0)
		}
		dst = dst[:start+size]
		if _, err := ioReadFull(br, dst[start:]); err != nil {
			return dst, err
		}
		if _, err := readLine(br); err != nil { // chunk CRLF
			return dst, err
		}
	}
}

// Decide sends one decision batch and decodes the reply. req must
// carry the target template (empty routes to the daemon's sole
// template). Transport failures are retried on fresh connections with
// exponential backoff (roundTrip owns that policy); HTTP-level
// rejections are returned as *wire.APIError without retry. The
// steady-state path performs zero heap allocations once the payload pool and connection scratch have
// warmed up (pinned by TestClientLookupZeroAlloc).
func (c *Client) Decide(lookup bool, req *wire.Request, resp *wire.Response) error {
	c.decides.Add(1)
	return c.DecideTraced(lookup, req, resp, obs.TraceContext{})
}

// DecideTraced is Decide with the caller's trace context: a valid tc
// rides the wire (DejaVu-Trace header over HTTP, a trace-flagged
// envelope over TCP) so every hop downstream records a span under it.
// The zero context is an ordinary untraced Decide.
func (c *Client) DecideTraced(lookup bool, req *wire.Request, resp *wire.Response, tc obs.TraceContext) error {
	start := time.Now()
	bufp, _ := c.payloads.Get().(*[]byte)
	if bufp == nil {
		bufp = new([]byte)
	}
	payload, err := req.AppendBinary((*bufp)[:0])
	*bufp = payload
	if err != nil {
		c.payloads.Put(bufp)
		return err // encoding errors are the caller's, never retried
	}
	if c.cfg.TCPAddr != "" {
		err = c.decideTCP(lookup, payload, resp, tc)
	} else {
		err = c.decideHTTP(lookup, payload, resp, tc)
	}
	c.payloads.Put(bufp) // the transport has fully written (or abandoned) the payload
	c.reqLat.Record(time.Since(start))
	if err != nil {
		return err
	}
	if len(resp.Results) != req.Rows() {
		return fmt.Errorf("client: %d results for %d signatures", len(resp.Results), req.Rows())
	}
	return nil
}

// decideHTTP carries one encoded decision payload over the HTTP
// plane and decodes the reply into resp.
func (c *Client) decideHTTP(lookup bool, payload []byte, resp *wire.Response, tc obs.TraceContext) error {
	path := "/v1/classify"
	if lookup {
		path = "/v1/lookup"
	}
	cn, body, err := c.roundTrip("POST", path, wire.ContentTypeBinary, payload, tc)
	if err != nil {
		return err
	}
	err = resp.DecodeBinary(body)
	c.release(cn, err == nil)
	return err
}
