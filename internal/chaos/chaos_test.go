package chaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// TestScheduleDeterministic pins the property the kill-replica
// integration test depends on: one seed and connection index yield one
// fault sequence, element for element (action, stall duration, and
// truncation point).
func TestScheduleDeterministic(t *testing.T) {
	cfg := Config{
		Seed:         42,
		DropRate:     0.05,
		StallRate:    0.2,
		TruncateRate: 0.03,
		StallMax:     3 * time.Millisecond,
		SkipFirst:    4,
	}
	a := NewSchedule(cfg, 7)
	b := NewSchedule(cfg, 7)
	var acted int
	for i := 0; i < 2000; i++ {
		ea, eb := a.Next(), b.Next()
		if ea != eb {
			t.Fatalf("event %d diverged: %+v vs %+v", i, ea, eb)
		}
		if i < cfg.SkipFirst && ea.Action != ActNone {
			t.Fatalf("event %d inside SkipFirst=%d window acted: %+v", i, cfg.SkipFirst, ea)
		}
		if ea.Action != ActNone {
			acted++
		}
	}
	if acted == 0 {
		t.Fatal("2000 events with a 28% combined fault rate injected nothing")
	}
}

// TestScheduleSeedsDiverge guards against a schedule that ignores its
// seed or connection index (which would make "deterministic" mean
// "constant").
func TestScheduleSeedsDiverge(t *testing.T) {
	cfg := Config{Seed: 42, DropRate: 0.1, StallRate: 0.3, TruncateRate: 0.1}
	draw := func(s *Schedule) []Event {
		evs := make([]Event, 256)
		for i := range evs {
			evs[i] = s.Next()
		}
		return evs
	}
	base := draw(NewSchedule(cfg, 0))
	otherConn := draw(NewSchedule(cfg, 1))
	cfg2 := cfg
	cfg2.Seed = 43
	otherSeed := draw(NewSchedule(cfg2, 0))
	same := func(a, b []Event) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if same(base, otherConn) {
		t.Fatal("connection indexes 0 and 1 drew identical schedules")
	}
	if same(base, otherSeed) {
		t.Fatal("seeds 42 and 43 drew identical schedules")
	}
}

// TestConnTruncateWritesPrefix verifies the torn-frame fault: the peer
// receives a strict prefix and then the close.
func TestConnTruncateWritesPrefix(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	// TruncateRate 1.0: the very first write truncates.
	cc := &Conn{Conn: server, sched: NewSchedule(Config{Seed: 1, TruncateRate: 1}, 0)}
	msg := bytes.Repeat([]byte("envelope"), 64)
	done := make(chan error, 1)
	go func() {
		_, err := cc.Write(msg)
		done <- err
	}()
	got, _ := io.ReadAll(client)
	if err := <-done; !errors.Is(err, errInjected) {
		t.Fatalf("truncated write returned %v, want injected fault", err)
	}
	if len(got) >= len(msg) {
		t.Fatalf("truncate delivered all %d bytes", len(got))
	}
	if !bytes.Equal(got, msg[:len(got)]) {
		t.Fatal("truncate delivered a non-prefix")
	}
}

// TestConnDropClosesBothWays verifies drops kill the connection for
// the peer too, not just error locally.
func TestConnDropClosesBothWays(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	cc := &Conn{Conn: server, sched: NewSchedule(Config{Seed: 9, DropRate: 1}, 3)}
	if _, err := cc.Read(make([]byte, 16)); !errors.Is(err, errInjected) {
		t.Fatalf("dropped read returned %v, want injected fault", err)
	}
	if _, err := client.Read(make([]byte, 16)); err == nil {
		t.Fatal("peer still readable after injected drop")
	}
}

// TestListenerDerivesPerConnection checks accepted connections consume
// distinct schedule indexes and the fault counter is shared.
func TestListenerDerivesPerConnection(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := NewListener(inner, Config{Seed: 5, DropRate: 1})
	defer ln.Close()
	for i := 0; i < 2; i++ {
		peer, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		nc, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Read(make([]byte, 1)); !errors.Is(err, errInjected) {
			t.Fatalf("conn %d: read returned %v, want injected fault", i, err)
		}
		peer.Close()
	}
	if got := ln.Injected(); got != 2 {
		t.Fatalf("Injected() = %d, want 2", got)
	}
}
