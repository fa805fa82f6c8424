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
// one to a clone, whose replies it drops. A response cache fed by the
// production answers then stands in for the database tier the clone
// lacks.
func ExampleNew() {
	cache, err := proxy.NewResponseCache(128)
	if err != nil {
		log.Fatal(err)
	}
	// Production answers "SELECT k" with "value-of-SELECT k" and feeds
	// the cache, as the proxy does by snooping production answers.
	prod := listen()
	defer prod.Close()
	serve(prod, func(conn net.Conn) {
		sc := bufio.NewScanner(conn)
		for sc.Scan() {
			req := sc.Text()
			resp := "value-of-" + req
			cache.Put([]byte(req), []byte(resp))
			fmt.Fprintf(conn, "%s\n", resp)
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

	// The clone's downstream queries are answered from the cache.
	te, err := proxy.NewTierEmulator("127.0.0.1:0", cache)
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = te.Serve() }()
	defer te.Close()
	conn, err := net.Dial("tcp", te.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)
	for _, q := range []string{"SELECT 3", "SELECT 99"} {
		fmt.Fprintf(conn, "%s\n", q)
		line, err := rd.ReadString('\n')
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("tier emulator answered %q with %q\n", q, line)
	}
	fmt.Printf("emulator served %d from cache, %d misses\n", te.Served(), te.Missed())
	// Output:
	// session 0 got: value-of-SELECT 0
	// session 1 got: value-of-SELECT 1
	// session 2 got: value-of-SELECT 2
	// session 3 got: value-of-SELECT 3
	// session 4 got: value-of-SELECT 4
	// session 5 got: value-of-SELECT 5
	// 6 sessions, 3 mirrored to the clone, 27 bytes mirrored
	// tier emulator answered "SELECT 3" with "value-of-SELECT 3\n"
	// tier emulator answered "SELECT 99" with "\n"
	// emulator served 1 from cache, 1 misses
}
