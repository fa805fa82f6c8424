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
//
// Replies are flushed before the loop can block, not after each one:
// while the next request already sits whole in the read buffer its
// reply is queued behind the previous ones, and the queue goes out in
// one write when the next read would have to wait for the peer (or at
// responseQueueCap). A synchronous caller therefore still gets one
// write per response, immediately; a pipelined burst shares them.

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
	// established session (default 5m, negative disables). It is armed
	// whenever the serving loop is about to wait for the peer — every
	// queued reply flushed, no whole envelope buffered — and covers the
	// arrival of that next envelope in full; a peer that goes silent,
	// or stalls mid-envelope for that long, is reaped.
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

// responseQueueCap bounds the replies one connection queues before
// flushing regardless of what is buffered to read: a peer that
// pipelines without pause gets a write at least every 32 KiB, and a
// connection's write queue never exceeds the cap plus one response.
const responseQueueCap = 32 << 10

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

// TCPStats is a snapshot of the TCP plane's connection accounting.
type TCPStats struct {
	// Conns counts connections accepted over the lifetime.
	Conns int64 `json:"conns"`
	// Active counts currently-tracked connections.
	Active int `json:"active"`
	// Refused counts connections turned away at the MaxConns cap.
	Refused int64 `json:"refused"`
	// Envelopes counts response envelopes (decisions, error replies,
	// pings) written over the lifetime, Flushes the writes that carried
	// them: Envelopes/Flushes is how many replies a write amortises —
	// 1 for synchronous callers, up to the pipeline depth for bursts.
	// Both are kept on the Server, beside the request counters the
	// planes share, so TCPServers wrapping one Server report their sum.
	Envelopes int64 `json:"envelopes"`
	Flushes   int64 `json:"flushes"`
}

// Stats snapshots the connection accounting.
func (t *TCPServer) Stats() TCPStats {
	t.mu.Lock()
	active := len(t.conns)
	t.mu.Unlock()
	return TCPStats{
		Conns: t.tcpConns.Load(), Active: active, Refused: t.tcpRefused.Load(),
		Envelopes: t.s.tcpEnvelopes.Load(), Flushes: t.s.tcpFlushes.Load(),
	}
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
	if t.cfg.IdleTimeout <= 0 && t.cfg.HelloTimeout > 0 {
		// No idle timeout will re-arm the deadline: clear the hello's.
		_ = nc.SetReadDeadline(time.Time{})
	}
	sc := t.s.pool.Get().(*scratch)
	defer t.s.pool.Put(sc)
	maxPayload := int(t.s.cfg.MaxBodyBytes)
	var queued int64 // replies in st's write queue
	flush := func() error {
		if queued == 0 {
			return nil
		}
		t.s.tcpEnvelopes.Add(queued)
		t.s.tcpFlushes.Add(1)
		queued = 0
		return st.Flush()
	}
	for {
		// Flush before block: the queue goes out when the next read may
		// have to wait for the peer, or at the cap. The idle clock
		// starts at the same moment, so it restarts per wait.
		mayBlock := !st.EnvelopeBuffered()
		if mayBlock || st.Queued() >= responseQueueCap {
			if err := flush(); err != nil {
				return
			}
		}
		if mayBlock && t.cfg.IdleTimeout > 0 {
			_ = nc.SetReadDeadline(time.Now().Add(t.cfg.IdleTimeout))
		}
		id, flags, payload, err := st.ReadEnvelope(maxPayload)
		if err != nil {
			// Clean close (io.EOF), peer death, idle-deadline expiry, or
			// framing corruption: either way the session is over. A
			// desynchronized stream cannot be answered — there is no
			// envelope to address the error to — but replies to the
			// requests ahead of it are still owed.
			_ = flush()
			return
		}
		queued++ // every path below queues exactly one reply to this envelope
		if flags&wire.StreamFlagPing != 0 {
			// Liveness probe: echo an empty ping envelope, payload
			// untouched. Answered in request order like decisions, so a
			// probe also proves the serving loop is draining.
			st.QueueEnvelope(id, wire.StreamFlagPing, nil)
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
				st.QueueEnvelope(id, wire.StreamFlagError, append(sc.out[:0], "server: malformed trace context"...))
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
			t.s.plane.Spans.RecordHop(parent, child, "dejavud", wire.OpName(lookup), spanStart, time.Since(spanStart))
		}
		if err != nil {
			t.s.badRequests.Add(1)
			st.QueueEnvelope(id, wire.StreamFlagError, appendErrString(sc.out[:0], err))
			continue
		}
		st.QueueEnvelope(id, 0, out)
	}
}

// appendErrString renders err into reusable scratch for an error
// envelope. The error path is off the pinned zero-alloc route, but
// reusing sc.out keeps it cheap anyway.
func appendErrString(dst []byte, err error) []byte {
	return append(dst, err.Error()...)
}
