package proxy_test

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"net"

	"repro/internal/proxy"
)

// serve accepts connections on ln until it closes and runs handle on
// each, in its own goroutine.
func serve(ln net.Listener, handle func(net.Conn)) {
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				handle(conn)
			}()
		}
	}()
}

func listen() net.Listener {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	return ln
}

// The paper's §3.2 dispatching path on loopback sockets: the proxy
// forwards every client session to production and mirrors every second
// one to a clone, whose replies it drops.
func ExampleNew() {
	// Production answers "SELECT k" with "value-of-SELECT k".
	prod := listen()
	defer prod.Close()
	serve(prod, func(conn net.Conn) {
		sc := bufio.NewScanner(conn)
		for sc.Scan() {
			req := sc.Text()
			fmt.Fprintf(conn, "value-of-%s\n", req)
		}
	})
	// The clone's replies are bogus; the proxy never forwards them.
	clone := listen()
	defer clone.Close()
	serve(clone, func(conn net.Conn) {
		_, _ = io.Copy(io.Discard, conn)
		fmt.Fprintln(conn, "bogus-clone-reply")
	})

	p, err := proxy.New(proxy.Config{
		ListenAddr:     "127.0.0.1:0",
		ProductionAddr: prod.Addr().String(),
		CloneAddr:      clone.Addr().String(),
		SampleEvery:    2,
	})
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = p.Serve() }()
	for i := 0; i < 6; i++ {
		conn, err := net.Dial("tcp", p.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(conn, "SELECT %d\n", i)
		line, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("session %d got: %s", i, line)
		conn.Close()
	}
	// Close waits for every session, its clone leg included, so the
	// counters are final.
	p.Close()
	st := p.Stats()
	fmt.Printf("%d sessions, %d mirrored to the clone, %d bytes mirrored\n", st.Sessions, st.Duplicated, st.BytesDuplicated)
	// Output:
	// session 0 got: value-of-SELECT 0
	// session 1 got: value-of-SELECT 1
	// session 2 got: value-of-SELECT 2
	// session 3 got: value-of-SELECT 3
	// session 4 got: value-of-SELECT 4
	// session 5 got: value-of-SELECT 5
	// 6 sessions, 3 mirrored to the clone, 27 bytes mirrored
}
