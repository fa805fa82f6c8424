// Package chaos is a seeded fault-injection layer for the decision
// plane's network transports. It wraps a net.Listener (or a single
// net.Conn) so that reads and writes suffer connection drops, stalls,
// latency spikes, and truncated writes according to a deterministic
// per-connection schedule derived from one seed — the same seed always
// produces the same fault sequence, which is what makes the
// kill-a-replica-under-chaos integration tests reproducible.
//
// The faults model the failure classes the replicated tier must
// absorb without rejecting client requests:
//
//   - drop: the connection is closed mid-operation (replica death,
//     middlebox reset). The peer sees a transport error and fails over.
//   - stall: an operation sleeps before proceeding (GC pause, network
//     congestion). Bounded by StallMax, so a stall is a latency spike,
//     not a hang — hangs are covered by dropping instead.
//   - truncate: a write sends a strict prefix of the buffer and then
//     closes, leaving the peer a torn frame (mid-envelope death).
//
// Determinism: each accepted connection gets its own schedule from
// rng.Derive(Seed, connIndex); every Read/Write consumes one event
// from that schedule. Faults therefore do not depend on wall-clock
// timing, goroutine interleaving, or poll ordering — only on the
// sequence number of operations on each connection, which the
// deterministic client workloads pin.
package chaos

import (
	"errors"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// Action is one scheduled fault (or the absence of one).
type Action uint8

const (
	// ActNone lets the operation through untouched.
	ActNone Action = iota
	// ActStall sleeps the operation's chosen delay, then proceeds.
	ActStall
	// ActDrop closes the connection; the operation fails.
	ActDrop
	// ActTruncate (writes only; reads treat it as ActDrop) writes a
	// strict prefix of the buffer, then closes.
	ActTruncate
)

// Config tunes the fault mix. Probabilities are per operation (one
// Read or Write consumes one schedule event); zero values inject
// nothing, so a zero Config is a transparent wrapper.
type Config struct {
	// Seed roots every per-connection schedule. Same seed, same
	// connection index, same operation sequence → same faults.
	Seed int64
	// DropRate is the per-operation probability of a connection drop.
	DropRate float64
	// StallRate is the per-operation probability of a latency spike.
	StallRate float64
	// TruncateRate is the per-operation probability that a write is
	// truncated and the connection closed (reads drop instead — a
	// read cannot be "partially delivered" by this side).
	TruncateRate float64
	// StallMax bounds one stall (default 2ms). The actual delay is
	// drawn uniformly from (0, StallMax].
	StallMax time.Duration
	// SkipFirst exempts the first N operations of every connection
	// from faults. Handshakes can thereby be let through while the
	// envelope traffic behind them suffers, or set to 0 to hit the
	// hello exchange too.
	SkipFirst int
}

// errInjected marks a fault this package injected, so tests can tell
// deliberate chaos from genuine bugs.
var errInjected = errors.New("chaos: injected connection fault")

// Event is one schedule entry: what to do to the next operation.
type Event struct {
	Action Action
	// Stall is the delay for ActStall events.
	Stall time.Duration
	// KeepBytes is the prefix length factor for ActTruncate, in
	// 1/256ths of the buffer (0 keeps nothing but still closes).
	KeepBytes byte
}

// Schedule is one connection's deterministic fault stream. Not safe
// for concurrent use; a connection serializes its schedule behind its
// own mutex-free ownership (net.Conn methods on one side of a stream
// are called sequentially by the wire layer).
type Schedule struct {
	cfg Config
	rnd *rand.Rand
	n   int
}

// NewSchedule derives the fault stream for one connection index.
func NewSchedule(cfg Config, connIndex int) *Schedule {
	if cfg.StallMax <= 0 {
		cfg.StallMax = 2 * time.Millisecond
	}
	return &Schedule{cfg: cfg, rnd: rng.New(rng.Derive(cfg.Seed, connIndex))}
}

// Next draws the next operation's event. The draw sequence is fixed
// per event (one Float64 for the action class, then the per-action
// parameters), so schedules with equal seeds are equal element-wise.
func (s *Schedule) Next() Event {
	u := s.rnd.Float64()
	stall := time.Duration(1 + s.rnd.Int63n(int64(s.cfg.StallMax)))
	keep := byte(s.rnd.Int63n(256))
	s.n++
	if s.n <= s.cfg.SkipFirst {
		return Event{Action: ActNone}
	}
	switch {
	case u < s.cfg.DropRate:
		return Event{Action: ActDrop}
	case u < s.cfg.DropRate+s.cfg.TruncateRate:
		return Event{Action: ActTruncate, KeepBytes: keep}
	case u < s.cfg.DropRate+s.cfg.TruncateRate+s.cfg.StallRate:
		return Event{Action: ActStall, Stall: stall}
	}
	return Event{Action: ActNone}
}

// Listener wraps an accept loop so every accepted connection carries
// its own derived fault schedule.
type Listener struct {
	net.Listener
	cfg Config
	n   atomic.Int64

	injected atomic.Int64 // faults actually fired, for test visibility
}

// NewListener wraps ln with the fault plan in cfg.
func NewListener(ln net.Listener, cfg Config) *Listener {
	return &Listener{Listener: ln, cfg: cfg}
}

// Accept wraps the next connection with schedule index n (0-based, in
// accept order).
func (l *Listener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	idx := int(l.n.Add(1) - 1)
	return &Conn{Conn: nc, sched: NewSchedule(l.cfg, idx), injected: &l.injected}, nil
}

// Injected reports how many faults have fired across all connections.
func (l *Listener) Injected() int64 { return l.injected.Load() }

// Conn applies one schedule to one connection's reads and writes.
type Conn struct {
	net.Conn
	sched    *Schedule
	injected *atomic.Int64
}

func (c *Conn) note() {
	if c.injected != nil {
		c.injected.Add(1)
	}
}

func (c *Conn) Read(p []byte) (int, error) {
	switch ev := c.sched.Next(); ev.Action {
	case ActDrop, ActTruncate: // a read cannot truncate; drop instead
		c.note()
		c.Conn.Close()
		return 0, errInjected
	case ActStall:
		c.note()
		time.Sleep(ev.Stall)
	}
	return c.Conn.Read(p)
}

func (c *Conn) Write(p []byte) (int, error) {
	switch ev := c.sched.Next(); ev.Action {
	case ActDrop:
		c.note()
		c.Conn.Close()
		return 0, errInjected
	case ActTruncate:
		c.note()
		keep := len(p) * int(ev.KeepBytes) / 256
		n, _ := c.Conn.Write(p[:keep])
		c.Conn.Close()
		return n, errInjected
	case ActStall:
		c.note()
		time.Sleep(ev.Stall)
	}
	return c.Conn.Write(p)
}
