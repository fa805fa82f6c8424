package parallel

import "sync/atomic"

// SingleFlight admits at most one in-flight background task. It is
// the concurrency guard for trigger-driven maintenance work — the
// decision server's drift-triggered relearn uses it so a storm of
// over-threshold windows launches one rebuild, not one per request
// that observed the crossing.
//
// The zero value is ready to use.
type SingleFlight struct {
	running atomic.Bool
}

// TryGo runs fn on a new goroutine unless a previous task is still in
// flight; it reports whether fn was launched. fn's panics are not
// recovered — background tasks are expected to handle their own
// failures.
func (s *SingleFlight) TryGo(fn func()) bool {
	if !s.running.CompareAndSwap(false, true) {
		return false
	}
	go func() {
		defer s.running.Store(false)
		fn()
	}()
	return true
}

// Busy reports whether a task is currently in flight.
func (s *SingleFlight) Busy() bool { return s.running.Load() }
