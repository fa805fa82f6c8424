package client

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/testkit"
	"repro/internal/wire"
)

// startTCPDaemon starts the HTTP admin plane plus the raw-TCP
// decision plane for one repository, returning both addresses.
func startTCPDaemon(t testing.TB, templates map[string]*core.Repository, cfg server.Config) (httpAddr, tcpAddr string, s *server.Server) {
	t.Helper()
	httpAddr, s = startDaemon(t, templates, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := server.NewTCP(s, server.TCPConfig{})
	done := make(chan error, 1)
	go func() { done <- ts.Serve(ln) }()
	t.Cleanup(func() {
		ts.Close()
		if err := <-done; err != nil {
			t.Errorf("tcp serve: %v", err)
		}
	})
	return httpAddr, ln.Addr().String(), s
}

// TestClientTCPEndToEnd pins the TCP transport against a live
// daemon: decisions under both spellings of the encoding tag, server
// rejections surfaced as *APIError without retry, and the admin plane
// still riding HTTP.
func TestClientTCPEndToEnd(t *testing.T) {
	repo := learnRepo(t, 1)
	httpAddr, tcpAddr, _ := startTCPDaemon(t, map[string]*core.Repository{"cassandra": repo}, server.Config{})
	sig := foreseen(t, repo, 2, 220)

	for _, enc := range []wire.Encoding{0, wire.EncodingBinary} {
		c, err := New(Config{Addr: httpAddr, TCPAddr: tcpAddr, Encoding: enc})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		var req wire.Request
		var resp wire.Response
		req.SetTemplate("cassandra")
		req.AppendRow(sig)
		if err := c.Decide(true, &req, &resp); err != nil {
			t.Fatalf("enc %v: %v", enc, err)
		}
		if len(resp.Results) != 1 || !resp.Results[0].Hit {
			t.Fatalf("enc %v: lookup %+v", enc, resp.Results)
		}
		if err := c.Decide(false, &req, &resp); err != nil {
			t.Fatalf("enc %v classify: %v", enc, err)
		}

		// A rejected request surfaces as *APIError, costs no retries,
		// and leaves the connection usable.
		before := c.retried.Load()
		req.Reset()
		req.SetTemplate("cassandra")
		req.AppendRow([]float64{1, 2})
		err = c.Decide(true, &req, &resp)
		apiErr, ok := err.(*wire.APIError)
		if !ok {
			t.Fatalf("enc %v: bad width returned %v, want *APIError", enc, err)
		}
		if !strings.Contains(apiErr.Body, "values") {
			t.Fatalf("enc %v: error body %q", enc, apiErr.Body)
		}
		if got := c.retried.Load(); got != before {
			t.Errorf("enc %v: server rejection consumed %d retries", enc, got-before)
		}
		req.Reset()
		req.SetTemplate("cassandra")
		req.AppendRow(sig)
		if err := c.Decide(true, &req, &resp); err != nil {
			t.Fatalf("enc %v post-error: %v", enc, err)
		}

		// Admin plane rides HTTP beside TCP decisions.
		if _, err := c.Stats("cassandra"); err != nil {
			t.Fatalf("enc %v stats: %v", enc, err)
		}
	}
}

// TestClientTCPAddrShorthand pins the tcp:// address form: a
// decisions-only client whose admin calls fail loudly instead of
// dialing garbage.
func TestClientTCPAddrShorthand(t *testing.T) {
	repo := learnRepo(t, 1)
	_, tcpAddr, _ := startTCPDaemon(t, map[string]*core.Repository{"cassandra": repo}, server.Config{})
	c, err := New(Config{Addr: "tcp://" + tcpAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var req wire.Request
	var resp wire.Response
	req.SetTemplate("cassandra")
	req.AppendRow(foreseen(t, repo, 2, 220))
	if err := c.Decide(true, &req, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("results %+v", resp.Results)
	}
	if _, err := c.Stats("cassandra"); err == nil || !strings.Contains(err.Error(), "no HTTP address") {
		t.Fatalf("admin call on decisions-only client: %v", err)
	}
}

// TestClientTCPReconnects pins transport-failure retry: when the
// daemon's TCP plane drops every live connection, the next decision
// retries onto a fresh one instead of failing.
func TestClientTCPReconnects(t *testing.T) {
	repo := learnRepo(t, 1)
	httpAddr, _, s := startTCPDaemon(t, map[string]*core.Repository{"cassandra": repo}, server.Config{})
	// A second TCP plane the test can bounce independently.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := server.NewTCP(s, server.TCPConfig{})
	go ts.Serve(ln)

	c, err := New(Config{Addr: httpAddr, TCPAddr: ln.Addr().String(), Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sig := foreseen(t, repo, 2, 220)
	var req wire.Request
	var resp wire.Response
	req.SetTemplate("cassandra")
	req.AppendRow(sig)
	if err := c.Decide(true, &req, &resp); err != nil {
		t.Fatal(err)
	}

	// Kill the plane under the pooled connection, restart on the same
	// port, and decide again: the stale pooled conn fails, the retry
	// dials fresh.
	addr := ln.Addr().String()
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	ts2 := server.NewTCP(s, server.TCPConfig{})
	done := make(chan error, 1)
	go func() { done <- ts2.Serve(ln2) }()
	t.Cleanup(func() {
		ts2.Close()
		<-done
	})
	if err := c.Decide(true, &req, &resp); err != nil {
		t.Fatalf("post-restart decide: %v", err)
	}
	if c.retried.Load() == 0 {
		t.Error("reconnect consumed no retries — stale conn was not detected")
	}
}

// TestClientCloseInterruptsRetryBackoff pins the shutdown contract:
// Close wakes a retry sleeping in backoff immediately, instead of
// holding shutdown for the remaining backoff sum.
func TestClientCloseInterruptsRetryBackoff(t *testing.T) {
	// A port with nothing listening: dials fail fast, so the client
	// spends its time in backoff sleeps.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	for _, transport := range []string{TransportHTTP, TransportTCP} {
		cfg := Config{Retries: 3, Backoff: 2 * time.Second}
		if transport == TransportTCP {
			cfg.Addr = "tcp://" + deadAddr
		} else {
			cfg.Addr = deadAddr
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var req wire.Request
		var resp wire.Response
		req.AppendRow([]float64{1})
		errc := make(chan error, 1)
		go func() {
			errc <- c.Decide(true, &req, &resp)
		}()
		// Let the first dial fail and the backoff sleep begin.
		time.Sleep(50 * time.Millisecond)
		start := time.Now()
		c.Close()
		select {
		case err := <-errc:
			if waited := time.Since(start); waited > time.Second {
				t.Errorf("%s: Close waited %v for a sleeping retry", transport, waited)
			}
			if err == nil || !strings.Contains(err.Error(), "closed") {
				t.Errorf("%s: interrupted decide returned %v", transport, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Decide still blocked 5s after Close — backoff ignores Close", transport)
		}
	}
}

// TestClientBackoffCap pins that the doubling backoff respects
// MaxBackoff: with a generous retry budget the total stall is
// bounded by retries×cap, not by the exponential sum.
func TestClientBackoffCap(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()
	c, err := New(Config{Addr: deadAddr, Retries: 6, Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var req wire.Request
	var resp wire.Response
	req.AppendRow([]float64{1})
	start := time.Now()
	if err := c.Decide(true, &req, &resp); err == nil {
		t.Fatal("decide against a dead address succeeded")
	}
	// Uncapped, attempts 1..6 would sleep 1+2+4+8+16+32 = 63ms
	// (pre-jitter); capped at 4ms the worst case is 1+2+4+4+4+4 =
	// 19ms. Allow slack for dial failures and scheduling.
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("6 capped retries took %v", elapsed)
	}
	if got := c.retried.Load(); got != 6 {
		t.Errorf("retried = %d, want 6", got)
	}
}

// TestClientTCPLookupZeroAlloc pins the acceptance bar from the
// client side: a warmed batched lookup over the real TCP plane —
// encode, envelope write, server decide, envelope read, decode —
// performs zero heap allocations (server included: AllocsPerRun
// counts all goroutines).
func TestClientTCPLookupZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	repo := learnRepo(t, 1)
	httpAddr, tcpAddr, _ := startTCPDaemon(t, map[string]*core.Repository{"cassandra": repo}, server.Config{})
	c, err := New(Config{Addr: httpAddr, TCPAddr: tcpAddr, Encoding: wire.EncodingBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sig := foreseen(t, repo, 2, 220)
	var req wire.Request
	var resp wire.Response
	req.SetTemplate("cassandra")
	for i := 0; i < 16; i++ {
		req.AppendRow(sig)
	}
	lookup := func() {
		if err := c.Decide(true, &req, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != 16 {
			t.Fatalf("results %d", len(resp.Results))
		}
	}
	for i := 0; i < 5; i++ {
		lookup()
	}
	if allocs := testing.AllocsPerRun(200, lookup); allocs != 0 {
		t.Errorf("TCP lookup allocates %.1f times per op, want 0", allocs)
		t.Log(testkit.AllocSites(200, lookup))
	}
}
