package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/proxy"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wire"
)

// Everything the benchmark stands up listens on loopback port 0 and is
// closed per pass; nothing outlives its workload.

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// httpPlane serves one handler on a loopback listener until closed.
type httpPlane struct {
	hs   *http.Server
	addr string
	done chan error
}

func serveHTTP(h http.Handler) (*httpPlane, error) {
	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	p := &httpPlane{hs: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { p.done <- p.hs.Serve(ln) }()
	return p, nil
}

func (p *httpPlane) close() error {
	err := p.hs.Close()
	if serr := <-p.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// daemon is one live dejavud: the HTTP admin/compat plane and the
// raw-TCP decision plane over the same server.Server.
type daemon struct {
	srv     *server.Server
	http    *httpPlane
	tcp     *server.TCPServer
	tcpAddr string
	tcpDone chan error
}

func startDaemon(cfg server.Config) (*daemon, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	hp, err := serveHTTP(srv.Handler())
	if err != nil {
		return nil, err
	}
	ln, err := listenLoopback()
	if err != nil {
		_ = hp.close() // already failing; the listen error is the one to report
		return nil, err
	}
	d := &daemon{srv: srv, http: hp, tcp: server.NewTCP(srv, server.TCPConfig{}),
		tcpAddr: ln.Addr().String(), tcpDone: make(chan error, 1)}
	go func() { d.tcpDone <- d.tcp.Serve(ln) }()
	return d, nil
}

func (d *daemon) close() error {
	err := d.tcp.Close()
	if serr := <-d.tcpDone; err == nil {
		err = serr
	}
	if herr := d.http.close(); err == nil {
		err = herr
	}
	return err
}

// tierReplicas is the replicated tier's size on fleet_tier and adapt.
const tierReplicas = 3

// tier is the replicated deployment: tierReplicas empty daemons, a
// registry over them (decisions on each replica's TCP plane), and the
// decision front clients talk binary-HTTP to.
type tier struct {
	members []*daemon
	reg     *replica.Registry
	front   *proxy.DecisionFront
	http    *httpPlane
}

func startTier() (*tier, error) {
	t := &tier{}
	specs := make([]replica.Spec, 0, tierReplicas)
	for i := 0; i < tierReplicas; i++ {
		d, err := startDaemon(server.Config{})
		if err != nil {
			_ = t.close() // already failing
			return nil, err
		}
		t.members = append(t.members, d)
		specs = append(specs, replica.Spec{Name: fmt.Sprintf("r%d", i), Addr: d.http.addr, TCPAddr: d.tcpAddr})
	}
	reg, err := replica.New(replica.Config{Replicas: specs, Encoding: wire.EncodingBinary})
	if err != nil {
		_ = t.close() // already failing
		return nil, err
	}
	t.reg = reg
	if t.front, err = proxy.NewDecisionFront(proxy.DecisionFrontConfig{Replicas: reg}); err != nil {
		_ = t.close() // already failing
		return nil, err
	}
	if t.http, err = serveHTTP(t.front.Handler()); err != nil {
		_ = t.close() // already failing
		return nil, err
	}
	return t, nil
}

// frontClient dials the decision front the way a remote fleet does
// today: binary payloads over HTTP, one pooled connection per caller.
func (t *tier) frontClient(callers int) (*client.Client, error) {
	return client.New(client.Config{Addr: t.http.addr, Encoding: wire.EncodingBinary, MaxIdleConns: callers})
}

func (t *tier) close() error {
	var err error
	if t.http != nil {
		err = t.http.close()
	}
	if t.front != nil {
		t.front.Close()
	}
	if t.reg != nil {
		t.reg.Close()
	}
	for _, d := range t.members {
		if derr := d.close(); err == nil {
			err = derr
		}
	}
	return err
}

// goroutineGuard fails a workload that leaves goroutines behind, so a
// leak cannot inflate a later workload's numbers.
type goroutineGuard struct{ base int }

func newGoroutineGuard() goroutineGuard { return goroutineGuard{base: runtime.NumGoroutine()} }

// check waits for connection handlers to notice their closed sockets,
// then requires the count back within ±2 of its pre-workload value.
func (g goroutineGuard) check() error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= g.base+2 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutine leak: %d before the workload, %d after teardown", g.base, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
