package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// TestTCPHelloTimeoutReapsStalledConn pins satellite #1: a client that
// connects and then never speaks is reaped after HelloTimeout instead
// of pinning a goroutine and socket forever.
func TestTCPHelloTimeoutReapsStalledConn(t *testing.T) {
	repo := testRepository(t, 1)
	s, _ := newTestServer(t, repo, Config{})
	ts, addr := startTCP(t, s, TCPConfig{HelloTimeout: 50 * time.Millisecond})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Say nothing. The server must hang up on us.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if n, err := nc.Read(buf); err == nil {
		t.Fatalf("read %d bytes, want the stalled connection closed", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ts.Stats().Active != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled connection still tracked: %+v", ts.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.badRequests.Load(); got != 1 {
		t.Errorf("badRequests = %d, want 1 (the reaped hello)", got)
	}
}

// TestTCPIdleTimeoutReapsQuietConn pins that a connection which
// completed its hello but then goes quiet is reaped after IdleTimeout.
func TestTCPIdleTimeoutReapsQuietConn(t *testing.T) {
	repo := testRepository(t, 1)
	s, _ := newTestServer(t, repo, Config{})
	_, addr := startTCP(t, s, TCPConfig{IdleTimeout: 50 * time.Millisecond})
	nc, st := dialStream(t, addr)

	// The hello completed; now go idle and wait to be hung up on.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, _, err := st.ReadEnvelope(1 << 20); err == nil {
		t.Fatal("idle connection still open after IdleTimeout")
	}
}

// TestTCPMaxConnsRefusesFlood pins satellite #2: a connection flood
// beyond MaxConns is refused at accept, counted, and refusals free no
// capacity that closing an admitted connection would not.
func TestTCPMaxConnsRefusesFlood(t *testing.T) {
	repo := testRepository(t, 1)
	s, _ := newTestServer(t, repo, Config{})
	ts, addr := startTCP(t, s, TCPConfig{MaxConns: 2})

	// Fill the cap with two real sessions.
	nc1, _ := dialStream(t, addr)
	_, st2 := dialStream(t, addr)

	// The flood: connections beyond the cap are closed before any
	// hello. Observing the close proves refusal; the Refused counter
	// proves it was the cap, not an accept error.
	for i := 0; i < 3; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 1)
		if n, err := nc.Read(buf); err == nil {
			t.Fatalf("flood conn %d: read %d bytes, want refusal", i, n)
		}
		nc.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for ts.Stats().Refused < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("Refused = %d, want 3 (stats %+v)", ts.Stats().Refused, ts.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// An admitted session still serves through the flood.
	sig := foreseenSignature(t, repo, 2, 220)
	var req wire.Request
	req.AppendRow(sig)
	var resp wire.Response
	roundTripTCP(t, st2, 1, &req, true, &resp)
	if len(resp.Results) != 1 || !resp.Results[0].Hit {
		t.Fatalf("capped server stopped serving admitted conns: %+v", resp.Results)
	}

	// Closing an admitted connection frees capacity for a new one.
	nc1.Close()
	deadline = time.Now().Add(5 * time.Second)
	for {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		st := wire.NewStream(nc)
		if err := st.WriteClientHello(wire.EncodingBinary); err == nil {
			if _, err := st.ReadServerHello(); err == nil {
				nc.Close()
				break // admitted: the freed slot was reused
			}
		}
		nc.Close()
		if time.Now().After(deadline) {
			t.Fatal("slot freed by a closed connection was never reusable")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPPingEnvelope pins satellite #3's TCP half: a ping-flagged
// envelope is echoed with its id without touching a repository, and
// the connection keeps serving decisions afterwards.
func TestTCPPingEnvelope(t *testing.T) {
	repo := testRepository(t, 1)
	s, _ := newTestServer(t, repo, Config{})
	_, addr := startTCP(t, s, TCPConfig{})
	_, st := dialStream(t, addr)

	if err := st.WriteEnvelope(7, wire.StreamFlagPing, nil); err != nil {
		t.Fatal(err)
	}
	id, flags, payload, err := st.ReadEnvelope(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 || flags&wire.StreamFlagPing == 0 || len(payload) != 0 {
		t.Fatalf("ping echo id=%d flags=%#x payload=%d bytes", id, flags, len(payload))
	}

	// Pings are not decisions: the counters must not move.
	if got := s.StatsSnapshot().Decisions; got != 0 {
		t.Errorf("ping counted as %d decisions", got)
	}

	sig := foreseenSignature(t, repo, 2, 220)
	var req wire.Request
	req.AppendRow(sig)
	var resp wire.Response
	roundTripTCP(t, st, 8, &req, true, &resp)
	if len(resp.Results) != 1 {
		t.Fatalf("post-ping lookup: %+v", resp.Results)
	}
}

// TestHealthEndpoint pins satellite #3's HTTP half: /v1/health reports
// liveness, uptime, and the per-template repository versions a
// registry reconciles against.
func TestHealthEndpoint(t *testing.T) {
	repo := testRepository(t, 1)
	_, ts := newTestServer(t, repo, Config{})

	resp, err := http.Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health status %d", resp.StatusCode)
	}
	var h struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		Templates     map[string]struct {
			Version uint64 `json:"version"`
			Entries int    `json:"entries"`
		} `json:"templates"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("health status %q", h.Status)
	}
	if h.UptimeSeconds < 0 {
		t.Fatalf("uptime %f", h.UptimeSeconds)
	}
	tpl, ok := h.Templates[DefaultTemplate]
	if !ok {
		t.Fatalf("health lacks template %q: %+v", DefaultTemplate, h.Templates)
	}
	if tpl.Version != 1 || tpl.Entries == 0 {
		t.Fatalf("template health %+v, want version 1 and entries", tpl)
	}
}

// TestDumpInstallAtVersionRoundTrip pins the resync primitive: dump a
// template, install the bytes verbatim on another daemon at an agreed
// version, and both serve identical decisions at identical versions.
func TestDumpInstallAtVersionRoundTrip(t *testing.T) {
	repo := testRepository(t, 1)
	_, donor := newTestServer(t, repo, Config{})
	_, joiner := newTestServer(t, testRepository(t, 2), Config{})

	// Dump the donor's default template.
	resp, err := http.Get(donor.URL + "/v1/dump")
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Version uint64          `json:"version"`
		Repo    json.RawMessage `json:"repo"`
	}
	err = json.NewDecoder(resp.Body).Decode(&dump)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if dump.Version != 1 || len(dump.Repo) == 0 {
		t.Fatalf("dump version=%d repo=%d bytes", dump.Version, len(dump.Repo))
	}
	// The dumped bytes must round-trip the core serialization.
	if _, err := core.LoadRepository(strings.NewReader(string(dump.Repo))); err != nil {
		t.Fatalf("dumped repository does not parse: %v", err)
	}

	// Install them on the joiner at the tier's agreed version 7.
	code, body := post(t, joiner.URL+"/v1/install?template=cassandra&version=7", string(dump.Repo))
	if code != http.StatusOK {
		t.Fatalf("install at version: %d %s", code, body)
	}
	var ir struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal([]byte(body), &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Version != 7 {
		t.Fatalf("install returned version %d, want 7", ir.Version)
	}

	// Both daemons now answer the donor's signature, the joiner at the
	// forced version.
	sig := foreseenSignature(t, repo, 3, 250)
	code, body, lr := decision(t, joiner.URL+"/v1/lookup", "cassandra", 0, sig)
	if code != http.StatusOK {
		t.Fatalf("joiner lookup: %d %s", code, body)
	}
	if lr.Version != 7 {
		t.Fatalf("joiner serves version %d, want 7", lr.Version)
	}
	if len(lr.Results) != 1 || !lr.Results[0].Hit {
		t.Fatalf("joiner lookup results %+v, want the donor's hit", lr.Results)
	}

	// Version regressions and the reserved version are rejected.
	for _, v := range []string{"3", "0", "bogus"} {
		code, body = post(t, joiner.URL+"/v1/install?template=cassandra&version="+v, string(dump.Repo))
		if code != http.StatusBadRequest {
			t.Fatalf("install version=%s: %d %s, want 400", v, code, body)
		}
	}
}

// TestInstallAtVersionEqualConverges pins that installing at the
// current version is allowed — a tier converging a replica onto
// byte-identical content must not be forced to burn a version number.
func TestInstallAtVersionEqualConverges(t *testing.T) {
	repo := testRepository(t, 1)
	_, ts := newTestServer(t, repo, Config{})
	resp, err := http.Get(ts.URL + "/v1/dump")
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Version uint64          `json:"version"`
		Repo    json.RawMessage `json:"repo"`
	}
	err = json.NewDecoder(resp.Body).Decode(&dump)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	code, body := post(t, ts.URL+fmt.Sprintf("/v1/install?template=%s&version=%d", DefaultTemplate, dump.Version), string(dump.Repo))
	if code != http.StatusOK {
		t.Fatalf("same-version install: %d %s", code, body)
	}
	var ir struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal([]byte(body), &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Version != dump.Version {
		t.Fatalf("converged install bumped version to %d, want %d", ir.Version, dump.Version)
	}
}
