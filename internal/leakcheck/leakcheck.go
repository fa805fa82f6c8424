// Package leakcheck fails a test binary whose tests leave goroutines
// running. A package that starts listeners, clients or background
// loops calls Main from its TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// so a helper that forgets to wait for what it started fails tier-1
// instead of skewing a later test's allocation count.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// grace is how long goroutines get to unwind after the last test:
// connection handlers and idle-connection readers take a moment to
// notice their socket closed.
const grace = time.Second

// Main runs m's tests and exits. When they pass but
// runtime.NumGoroutine has not fallen back to its count before m.Run
// within grace, it prints every goroutine's stack and exits 1.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(grace)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines %v after the last test, %d before the first:\n%s",
				n, grace, before, buf[:runtime.Stack(buf, true)])
			code = 1
		}
	}
	os.Exit(code)
}
