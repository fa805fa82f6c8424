package client

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/wire"
)

// cannedServer is a hand-rolled HTTP responder that answers every
// request with the same prebuilt bytes, itself allocation-free at
// steady state — so testing.AllocsPerRun around a client call
// measures the client alone. (Against a real dejavud the global
// allocation counter would also see net/http's per-request garbage on
// the server goroutine.)
func cannedServer(t testing.TB, response []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReaderSize(conn, 16<<10)
				body := make([]byte, 0, 16<<10)
				for {
					// Headers: find Content-Length, then the blank line.
					cl := -1
					for {
						line, err := readLine(br)
						if err != nil {
							return
						}
						if len(line) == 0 {
							break
						}
						if v, ok := headerValue(line, "content-length"); ok {
							if cl, ok = atoiBytes(v); !ok {
								return
							}
						}
					}
					if cl < 0 || cl > cap(body) {
						return
					}
					if _, err := ioReadFull(br, body[:cl]); err != nil {
						return
					}
					if _, err := conn.Write(response); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestClientLookupZeroAlloc pins the acceptance criterion on the
// client side: a steady-state binary batched lookup — request build,
// HTTP write, response framing, wire decode — performs zero heap
// allocations.
func TestClientLookupZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector degrades sync.Pool caching and distorts allocation counts")
	}
	const batch = 16
	const width = 6

	// Canned response: a version-3 lookup reply with `batch` rows.
	resp := wire.Response{Version: 3, Lookup: true}
	for i := 0; i < batch; i++ {
		resp.Results = append(resp.Results, wire.Decision{Class: 1, Certainty: 0.9, Hit: true, Type: 2, Count: 4})
	}
	frame := resp.AppendBinary(nil)
	canned := []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		wire.ContentTypeBinary, len(frame)))
	canned = append(canned, frame...)
	addr := cannedServer(t, canned)

	c, err := New(Config{Addr: addr, Encoding: wire.EncodingBinary, MaxIdleConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(9))
	var req wire.Request
	var out wire.Response
	req.SetTemplate("cassandra")
	row := make([]float64, width)
	for i := 0; i < batch; i++ {
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		req.AppendRow(row)
	}

	// Warm the connection and every scratch buffer.
	for i := 0; i < 3; i++ {
		if err := c.Decide(true, &req, &out); err != nil {
			t.Fatal(err)
		}
	}
	if len(out.Results) != batch || !out.Results[0].Hit {
		t.Fatalf("canned decode: %+v", out)
	}
	decide := func() {
		if err := c.Decide(true, &req, &out); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, decide); allocs != 0 {
		t.Errorf("client binary lookup path allocates %.1f times per batch, want 0", allocs)
		t.Log(obs.AllocSites(200, decide))
	}

	// The single-signature DecisionSource path stays allocation-free
	// too (its per-source scratch pools the wire state).
	events := make([]metrics.Event, width)
	for i := range events {
		events[i] = metrics.Event(fmt.Sprintf("ev%d", i))
	}
	// One-row canned reply for the source path.
	one := wire.Response{Version: 3, Lookup: true, Results: []wire.Decision{{Class: 1, Certainty: 0.9, Hit: true, Type: 2, Count: 4}}}
	oneFrame := one.AppendBinary(nil)
	oneCanned := []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		wire.ContentTypeBinary, len(oneFrame)))
	oneCanned = append(oneCanned, oneFrame...)
	addr2 := cannedServer(t, oneCanned)
	c2, err := New(Config{Addr: addr2, Encoding: wire.EncodingBinary, MaxIdleConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	src, err := c2.Source("cassandra", events)
	if err != nil {
		t.Fatal(err)
	}
	sig := &core.Signature{Events: events, Values: row}
	for i := 0; i < 3; i++ {
		if _, err := src.Lookup(sig, 2); err != nil {
			t.Fatal(err)
		}
	}
	lookup := func() {
		if _, err := src.Lookup(sig, 2); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, lookup); allocs != 0 {
		t.Errorf("source single-lookup path allocates %.1f times per call, want 0", allocs)
		t.Log(obs.AllocSites(200, lookup))
	}
}
