package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Raw-TCP decision plane. HTTP remains the admin/compat plane
// (install, stats, snapshot, metrics); this listener serves only the
// hot path — classify and lookup — as wire envelopes over persistent
// connections, through the same pooled-scratch decide() the HTTP
// adapter uses. Per connection: one hello exchange guarding protocol
// version and encoding, then a sequence of request envelopes answered in
// order (clients match responses by id, so they may pipeline).
// Request errors are answered with error envelopes and the
// connection stays up; only framing-level corruption closes it.

// TCPConfig configures the raw-TCP decision listener.
type TCPConfig struct {
	// Accepters is the number of parallel accept loops draining the
	// listener — per-core accept loops for multi-core serving.
	// Defaults to 1.
	Accepters int
	// HelloTimeout bounds how long an accepted connection may take to
	// complete the client hello (default 10s, negative disables). A
	// client that connects and sends nothing would otherwise park a
	// serving goroutine forever.
	HelloTimeout time.Duration
	// IdleTimeout bounds the wait for the next request envelope on an
	// established session (default 5m, negative disables). Envelope
	// bytes in flight reset it; a peer that goes silent is reaped.
	IdleTimeout time.Duration
	// MaxConns caps concurrent connections (0 = unbounded). Over-limit
	// accepts are refused — closed immediately, before the hello — and
	// counted in Stats().Refused, bounding goroutines and stream
	// buffers under a connection flood.
	MaxConns int
}

func (c *TCPConfig) defaults() {
	if c.Accepters <= 0 {
		c.Accepters = 1
	}
	if c.HelloTimeout == 0 {
		c.HelloTimeout = 10 * time.Second
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 5 * time.Minute
	}
}

// TCPServer serves a Server's decision path over raw TCP.
type TCPServer struct {
	s   *Server
	cfg TCPConfig

	mu     sync.Mutex
	lns    []net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup

	tcpConns   atomic.Int64 // accepted connections, lifetime
	tcpRefused atomic.Int64 // connections refused at the MaxConns cap
}

// NewTCP wraps a Server with the raw-TCP decision plane.
func NewTCP(s *Server, cfg TCPConfig) *TCPServer {
	cfg.defaults()
	return &TCPServer{s: s, cfg: cfg, conns: map[net.Conn]struct{}{}}
}

// Serve accepts connections on ln until Close, running
// cfg.Accepters parallel accept loops. It blocks until the listener
// shuts down and returns nil on a Close-initiated shutdown. Serve
// may be called on several listeners (sharded listeners each get
// their own accept loops).
func (t *TCPServer) Serve(ln net.Listener) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		ln.Close()
		return errors.New("server: tcp listener is closed")
	}
	t.lns = append(t.lns, ln)
	t.mu.Unlock()

	var wg sync.WaitGroup
	errc := make(chan error, t.cfg.Accepters)
	for i := 0; i < t.cfg.Accepters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errc <- t.acceptLoop(ln)
		}()
	}
	wg.Wait()
	// All accepters fail for the same reason; report the first.
	return <-errc
}

func (t *TCPServer) acceptLoop(ln net.Listener) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			if t.isClosed() {
				return nil
			}
			return fmt.Errorf("server: tcp accept: %w", err)
		}
		ok, refused := t.track(nc)
		if !ok {
			nc.Close()
			if refused {
				// At the cap: refuse this connection, keep accepting —
				// existing sessions closing frees capacity.
				t.tcpRefused.Add(1)
				continue
			}
			return nil // server closed
		}
		t.tcpConns.Add(1)
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			defer t.untrack(nc)
			t.serveConn(nc)
		}()
	}
}

func (t *TCPServer) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

func (t *TCPServer) track(nc net.Conn) (ok, refused bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false, false
	}
	if t.cfg.MaxConns > 0 && len(t.conns) >= t.cfg.MaxConns {
		return false, true
	}
	t.conns[nc] = struct{}{}
	return true, false
}

func (t *TCPServer) untrack(nc net.Conn) {
	nc.Close()
	t.mu.Lock()
	delete(t.conns, nc)
	t.mu.Unlock()
}

// Conns reports the number of connections accepted over the
// listener's lifetime.
func (t *TCPServer) Conns() int64 { return t.tcpConns.Load() }

// TCPStats is a snapshot of the TCP plane's connection accounting.
type TCPStats struct {
	// Conns counts connections accepted over the lifetime.
	Conns int64 `json:"conns"`
	// Active counts currently-tracked connections.
	Active int `json:"active"`
	// Refused counts connections turned away at the MaxConns cap.
	Refused int64 `json:"refused"`
}

// Stats snapshots the connection accounting.
func (t *TCPServer) Stats() TCPStats {
	t.mu.Lock()
	active := len(t.conns)
	t.mu.Unlock()
	return TCPStats{Conns: t.tcpConns.Load(), Active: active, Refused: t.tcpRefused.Load()}
}

// Close shuts the listeners, closes every live connection, and waits
// for the per-connection goroutines to drain.
func (t *TCPServer) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	lns := t.lns
	t.lns = nil
	for nc := range t.conns {
		nc.Close()
	}
	t.mu.Unlock()
	var first error
	for _, ln := range lns {
		if err := ln.Close(); err != nil && first == nil {
			first = err
		}
	}
	t.wg.Wait()
	return first
}

// serveConn owns one connection: hello exchange, then envelopes
// until the peer closes or the framing breaks. The whole loop runs
// on one goroutine with one pooled scratch and the Stream's own
// buffers, so steady-state decisions allocate nothing.
func (t *TCPServer) serveConn(nc net.Conn) {
	st := wire.NewStream(nc)
	// Read deadline on the hello: a connection that sends nothing (or
	// a foreign protocol that never completes 6 bytes) is reaped
	// instead of parking this goroutine forever.
	if t.cfg.HelloTimeout > 0 {
		_ = nc.SetReadDeadline(time.Now().Add(t.cfg.HelloTimeout))
	}
	if _, err := st.ReadClientHello(); err != nil {
		// Foreign magic, another release's version, or an encoding byte
		// other than 1: count it, log why, and close.
		t.s.badRequests.Add(1)
		t.s.logf("dejavud: tcp %s: %v", nc.RemoteAddr(), err)
		return
	}
	if err := st.WriteServerHello(wire.EncodingBinary); err != nil {
		return
	}
	sc := t.s.pool.Get().(*scratch)
	defer t.s.pool.Put(sc)
	maxPayload := int(t.s.cfg.MaxBodyBytes)
	for {
		// Idle timeout: armed before each envelope read, so the clock
		// restarts per request. Disabled (negative) clears any hello
		// deadline left on the socket.
		if t.cfg.IdleTimeout > 0 {
			_ = nc.SetReadDeadline(time.Now().Add(t.cfg.IdleTimeout))
		} else if t.cfg.HelloTimeout > 0 {
			_ = nc.SetReadDeadline(time.Time{})
		}
		id, flags, payload, err := st.ReadEnvelope(maxPayload)
		if err != nil {
			// Clean close (io.EOF), peer death, idle-deadline expiry, or
			// framing corruption: either way the session is over. A
			// desynchronized stream cannot be answered — there is no
			// envelope to address the error to.
			return
		}
		if flags&wire.StreamFlagPing != 0 {
			// Liveness probe: echo an empty ping envelope, payload
			// untouched. Answered in request order like decisions, so a
			// probe also proves the serving loop is draining.
			if err := st.WriteEnvelope(id, wire.StreamFlagPing, nil); err != nil {
				return
			}
			continue
		}
		lookup := flags&wire.StreamFlagLookup != 0
		if lookup {
			t.s.lookupReqs.Add(1)
		} else {
			t.s.classifyReqs.Add(1)
		}
		// A trace-flagged envelope prefixes the frame with a 16-byte
		// trace context; strip it and record this hop's span around
		// decide(). Untraced envelopes skip all of it.
		var parent, child obs.TraceContext
		var spanStart time.Time
		if flags&wire.StreamFlagTrace != 0 {
			tc, ok := obs.ParseWireContext(payload)
			if !ok {
				t.s.badRequests.Add(1)
				if werr := st.WriteEnvelope(id, wire.StreamFlagError, append(sc.out[:0], "server: malformed trace context"...)); werr != nil {
					return
				}
				continue
			}
			parent, child = tc, obs.Child(tc)
			payload = payload[obs.WireContextLen:]
			spanStart = time.Now()
		}
		// The payload aliases the Stream's read scratch; decide()
		// consumes it before the next ReadEnvelope overwrites it.
		sc.body = payload
		out, err := t.s.decide(sc, lookup, transportTCP)
		if child.Valid() {
			t.s.spans.RecordHop(parent, child, "dejavud", decisionOp(lookup), spanStart, time.Since(spanStart))
		}
		if err != nil {
			t.s.badRequests.Add(1)
			if werr := st.WriteEnvelope(id, wire.StreamFlagError, appendErrString(sc.out[:0], err)); werr != nil {
				return
			}
			continue
		}
		if err := st.WriteEnvelope(id, 0, out); err != nil {
			return
		}
	}
}

// appendErrString renders err into reusable scratch for an error
// envelope. The error path is off the pinned zero-alloc route, but
// reusing sc.out keeps it cheap anyway.
func appendErrString(dst []byte, err error) []byte {
	return append(dst, err.Error()...)
}
