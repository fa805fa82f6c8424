// Package proxy implements DejaVu's workload-dispatching proxy (paper
// §3.2.1): a transport-level proxy that sits between clients and the
// production service, forwards every request to production, duplicates
// a sampled subset of client sessions to a clone instance in the
// profiling environment, and drops the clone's replies so profiling is
// invisible to clients. Unlike prior application-protocol-aware
// proxies (HTTP, mod-jk, jdbc, ...), this proxy works with any
// service because it operates on the byte stream between the
// application and transport layers.
package proxy

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Config configures a duplicating proxy.
type Config struct {
	// ListenAddr is the address clients connect to (e.g.
	// "127.0.0.1:0" to pick a free port).
	ListenAddr string
	// ProductionAddr is the production service instance.
	ProductionAddr string
	// CloneAddr is the profiling clone; empty disables duplication.
	CloneAddr string
	// SampleEvery duplicates one in every N client sessions
	// (default 1 = every session). Sampling happens at session
	// granularity "to avoid issues with non-existent web cookies".
	SampleEvery int
}

// Stats reports proxy activity. All counters are cumulative.
type Stats struct {
	// Sessions is the number of accepted client sessions.
	Sessions int64
	// Duplicated is the number of sessions mirrored to the clone.
	Duplicated int64
	// BytesIn is the client-to-production byte volume.
	BytesIn int64
	// BytesOut is the production-to-client byte volume.
	BytesOut int64
	// BytesDuplicated is the byte volume mirrored to the clone.
	BytesDuplicated int64
	// CloneErrors counts sessions whose clone leg failed;
	// production service is never affected.
	CloneErrors int64
}

// Proxy is a running duplicating proxy.
type Proxy struct {
	cfg      Config
	listener net.Listener

	sessions        atomic.Int64
	duplicated      atomic.Int64
	bytesIn         atomic.Int64
	bytesOut        atomic.Int64
	bytesDuplicated atomic.Int64
	cloneErrors     atomic.Int64

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// New validates the configuration and binds the listener; call Serve
// (usually in a goroutine) to start accepting.
func New(cfg Config) (*Proxy, error) {
	if cfg.ListenAddr == "" {
		return nil, errors.New("proxy: ListenAddr must be set")
	}
	if cfg.ProductionAddr == "" {
		return nil, errors.New("proxy: ProductionAddr must be set")
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 1
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("proxy: listen: %w", err)
	}
	return &Proxy{cfg: cfg, listener: ln}, nil
}

// Addr returns the bound listen address.
func (p *Proxy) Addr() net.Addr { return p.listener.Addr() }

// Serve accepts client sessions until Close is called. It returns nil
// after a clean shutdown.
func (p *Proxy) Serve() error {
	for {
		conn, err := p.listener.Accept()
		if err != nil {
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("proxy: accept: %w", err)
		}
		n := p.sessions.Add(1)
		duplicate := p.cfg.CloneAddr != "" && (n-1)%int64(p.cfg.SampleEvery) == 0
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.handle(conn, duplicate)
		}()
	}
}

// Close stops accepting and waits for in-flight sessions to finish.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.listener.Close()
	p.wg.Wait()
	return err
}

// Stats returns a snapshot of the activity counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Sessions:        p.sessions.Load(),
		Duplicated:      p.duplicated.Load(),
		BytesIn:         p.bytesIn.Load(),
		BytesOut:        p.bytesOut.Load(),
		BytesDuplicated: p.bytesDuplicated.Load(),
		CloneErrors:     p.cloneErrors.Load(),
	}
}

// handle proxies one client session.
func (p *Proxy) handle(client net.Conn, duplicate bool) {
	defer client.Close()
	prod, err := net.Dial("tcp", p.cfg.ProductionAddr)
	if err != nil {
		return // production unreachable; drop the session
	}
	defer prod.Close()

	var clone *asyncCloneWriter
	if duplicate {
		conn, err := net.Dial("tcp", p.cfg.CloneAddr)
		if err != nil {
			// Profiling must never break production traffic.
			p.cloneErrors.Add(1)
		} else {
			p.duplicated.Add(1)
			clone = newAsyncCloneWriter(conn, &p.bytesDuplicated)
			defer clone.Close()
			// Drain and drop the clone's replies ("the clone's
			// replies are dropped by the profiler").
			go func() {
				_, _ = io.Copy(io.Discard, conn)
			}()
		}
	}

	done := make(chan struct{}, 2)
	// Client -> production (tee to clone).
	go func() {
		defer func() { done <- struct{}{} }()
		var dst io.Writer = prod
		if clone != nil {
			dst = io.MultiWriter(prod, clone)
		}
		n, _ := io.Copy(dst, client)
		p.bytesIn.Add(n)
		// Propagate client EOF so request/response servers finish.
		if tc, ok := prod.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
		if clone != nil {
			clone.CloseWrite()
		}
	}()
	// Production -> client.
	go func() {
		defer func() { done <- struct{}{} }()
		n, _ := io.Copy(client, prod)
		p.bytesOut.Add(n)
		if tc, ok := client.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
	}()
	<-done
	<-done
}

// asyncCloneWriter decouples the clone leg from production: writes are
// queued on a buffered channel and flushed by a dedicated goroutine. A
// slow or dead clone causes chunks to be dropped, never backpressure
// on the production path ("its proxy must induce negligible overhead
// while duplicating client requests").
type asyncCloneWriter struct {
	ch     chan []byte
	closed chan struct{}
	once   sync.Once
	n      *atomic.Int64
}

// cloneQueueDepth bounds the clone backlog before chunks are dropped.
const cloneQueueDepth = 256

func newAsyncCloneWriter(conn net.Conn, n *atomic.Int64) *asyncCloneWriter {
	w := &asyncCloneWriter{
		ch:     make(chan []byte, cloneQueueDepth),
		closed: make(chan struct{}),
		n:      n,
	}
	go func() {
		defer close(w.closed)
		for chunk := range w.ch {
			if chunk == nil {
				// CloseWrite marker: half-close toward the clone.
				if tc, ok := conn.(*net.TCPConn); ok {
					_ = tc.CloseWrite()
				}
				continue
			}
			// Counted before the write: once conn.Write hands the
			// bytes over, the clone may read them before this
			// goroutine runs again, and a reader that saw the bytes
			// arrive must see them counted. A failed write takes
			// back what it did not send.
			w.n.Add(int64(len(chunk)))
			if sent, err := conn.Write(chunk); err != nil {
				w.n.Add(int64(sent - len(chunk)))
				// Keep draining the queue so producers never
				// block; the clone leg is already lost.
			}
		}
	}()
	return w
}

// Write implements io.Writer. It always reports success so the
// MultiWriter keeps feeding production.
func (w *asyncCloneWriter) Write(b []byte) (int, error) {
	chunk := append([]byte(nil), b...)
	select {
	case w.ch <- chunk:
	default:
		// Queue full: drop the chunk. The profiler tolerates gaps;
		// production latency must not.
	}
	return len(b), nil
}

// CloseWrite queues a half-close toward the clone.
func (w *asyncCloneWriter) CloseWrite() {
	select {
	case w.ch <- nil:
	default:
	}
}

// Close stops the flusher after the queue drains.
func (w *asyncCloneWriter) Close() {
	w.once.Do(func() { close(w.ch) })
	<-w.closed
}
