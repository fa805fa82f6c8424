package client

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Raw-TCP decision transport. Decisions travel as wire envelopes
// over persistent connections (see internal/wire stream framing):
// one hello exchange per connection, then request envelopes answered
// by id. The admin plane (install, stats,
// snapshot) stays on HTTP — this transport exists purely to strip
// HTTP overhead from the hot path. Retry policy matches the HTTP
// plane: transport failures retry on fresh connections with capped,
// jittered backoff; server rejections arrive as error envelopes and
// are returned as *wire.APIError without retry.

// maxTCPResponseBytes bounds one response envelope — matches the
// server's default request-body limit.
const maxTCPResponseBytes = 8 << 20

// tcpConn is one pooled raw-TCP decision connection: the handshaken
// stream plus a connection-local request-id counter. The Stream owns
// the read/write scratch, so steady-state traffic on a pooled
// connection allocates nothing.
type tcpConn struct {
	nc     net.Conn
	st     *wire.Stream
	nextID uint32
	tcbuf  [obs.WireContextLen]byte // trace-context prefix scratch
}

// dialTCP establishes and handshakes a decision connection.
func (c *Client) dialTCP() (*tcpConn, error) {
	nc, err := net.DialTimeout("tcp", c.cfg.TCPAddr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial tcp %s: %w", c.cfg.TCPAddr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	if err := nc.SetDeadline(time.Now().Add(dialTimeout)); err != nil {
		nc.Close()
		return nil, err
	}
	st := wire.NewStream(nc)
	if err := st.WriteClientHello(wire.EncodingBinary); err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: tcp hello: %w", err)
	}
	if _, err := st.ReadServerHello(); err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: tcp hello: %w", err)
	}
	return &tcpConn{nc: nc, st: st}, nil
}

// getTCP borrows a pooled decision connection or dials a fresh one.
func (c *Client) getTCP() (*tcpConn, error) {
	select {
	case cn := <-c.tcpIdle:
		return cn, nil
	default:
		return c.dialTCP()
	}
}

// releaseTCP returns a healthy connection to the pool.
func (c *Client) releaseTCP(cn *tcpConn, healthy bool) {
	if cn == nil {
		return
	}
	if !healthy || c.closed.Load() {
		cn.nc.Close()
		return
	}
	select {
	case c.tcpIdle <- cn:
	default:
		cn.nc.Close()
	}
}

// decideTCP carries one encoded decision payload over the raw-TCP
// plane, retrying transport failures like roundTrip does for HTTP.
// The steady-state binary path allocates nothing once the pool and
// stream scratch have warmed up (pinned by TestClientTCPLookupZeroAlloc).
func (c *Client) decideTCP(lookup bool, payload []byte, resp *wire.Response, tc obs.TraceContext) error {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			if err := c.backoffWait(attempt); err != nil {
				return fmt.Errorf("%w (last transport error: %v)", err, lastErr)
			}
		}
		cn, err := c.getTCP()
		if err != nil {
			lastErr = err
			continue
		}
		apiErr, err := c.exchangeTCP(cn, lookup, payload, resp, tc)
		if err != nil {
			cn.nc.Close()
			lastErr = err
			continue
		}
		if apiErr != nil {
			// The server parsed and rejected the request; the stream
			// stays synchronized, so the connection is reusable and the
			// rejection — like an HTTP 4xx — is never retried.
			c.releaseTCP(cn, true)
			return apiErr
		}
		c.releaseTCP(cn, true)
		return nil
	}
	return fmt.Errorf("client: tcp decide failed after %d attempts: %w", c.cfg.Retries+1, lastErr)
}

// Ping round-trips one empty ping-flagged envelope on the raw-TCP
// decision plane: accept, hello, framing, and the serving loop are all
// exercised without touching a repository. Deliberately no retries —
// a health probe wants the plane's state now, and its caller owns the
// failure policy.
func (c *Client) Ping() error {
	if c.cfg.TCPAddr == "" {
		return errors.New("client: ping needs a raw-TCP decision address")
	}
	cn, err := c.getTCP()
	if err != nil {
		return err
	}
	if err := cn.nc.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		cn.nc.Close()
		return err
	}
	cn.nextID++
	id := cn.nextID
	if err := cn.st.WriteEnvelope(id, wire.StreamFlagPing, nil); err != nil {
		cn.nc.Close()
		return err
	}
	gotID, gotFlags, _, err := cn.st.ReadEnvelope(maxTCPResponseBytes)
	if err != nil {
		cn.nc.Close()
		return err
	}
	if gotID != id || gotFlags&wire.StreamFlagPing == 0 {
		cn.nc.Close()
		return fmt.Errorf("client: tcp ping answered with id %d flags %#x", gotID, gotFlags)
	}
	c.releaseTCP(cn, true)
	return nil
}

// exchangeTCP writes one request envelope and reads its response on
// cn, decoding into resp. A non-nil *wire.APIError is a server-side
// rejection (error envelope); err covers transport and framing
// failures, after which the caller must close the connection.
func (c *Client) exchangeTCP(cn *tcpConn, lookup bool, payload []byte, resp *wire.Response, tc obs.TraceContext) (*wire.APIError, error) {
	if err := cn.nc.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return nil, err
	}
	cn.nextID++
	id := cn.nextID
	var flags byte
	if lookup {
		flags = wire.StreamFlagLookup
	}
	var prefix []byte
	if tc.Valid() {
		// A sampled decision slides its 16-byte trace context ahead of
		// the frame under StreamFlagTrace; the envelope writer splices
		// the two parts without an intermediate concatenation.
		flags |= wire.StreamFlagTrace
		prefix = tc.AppendWire(cn.tcbuf[:0])
	}
	if err := cn.st.WriteEnvelopeParts(id, flags, prefix, payload); err != nil {
		return nil, err
	}
	gotID, gotFlags, body, err := cn.st.ReadEnvelope(maxTCPResponseBytes)
	if err != nil {
		return nil, err
	}
	if gotID != id {
		// A response for a request this connection did not just send
		// means the stream is desynchronized; only a close recovers.
		return nil, fmt.Errorf("client: tcp response id %d for request %d", gotID, id)
	}
	if gotFlags&wire.StreamFlagError != 0 {
		return &wire.APIError{Status: 400, Body: string(body)}, nil
	}
	if err := resp.DecodeBinary(body); err != nil {
		return nil, err
	}
	return nil, nil
}
