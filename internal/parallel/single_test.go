package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSingleFlightAdmitsOne(t *testing.T) {
	var sf SingleFlight
	release := make(chan struct{})
	started := make(chan struct{})
	if !sf.TryGo(func() { close(started); <-release }) {
		t.Fatal("first TryGo should launch")
	}
	<-started
	if !sf.Busy() {
		t.Error("Busy should report the in-flight task")
	}
	for i := 0; i < 5; i++ {
		if sf.TryGo(func() {}) {
			t.Fatal("second TryGo should be refused while the first runs")
		}
	}
	close(release)
	// The slot frees once the task returns.
	deadline := time.Now().Add(2 * time.Second)
	for sf.Busy() {
		if time.Now().After(deadline) {
			t.Fatal("slot never freed")
		}
		time.Sleep(time.Millisecond)
	}
	if !sf.TryGo(func() {}) {
		t.Error("TryGo should admit again after completion")
	}
}

// TestSingleFlightConcurrent launches TryGo from many goroutines at
// once; exactly one long task may be in flight at any moment (-race),
// and every launch it reports runs.
func TestSingleFlightConcurrent(t *testing.T) {
	var sf SingleFlight
	var inFlight, maxInFlight, launched, ran atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ok := sf.TryGo(func() {
					ran.Add(1)
					n := inFlight.Add(1)
					for {
						m := maxInFlight.Load()
						if n <= m || maxInFlight.CompareAndSwap(m, n) {
							break
						}
					}
					time.Sleep(50 * time.Microsecond)
					inFlight.Add(-1)
				})
				if ok {
					launched.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for sf.Busy() {
		if time.Now().After(deadline) {
			t.Fatal("slot never freed")
		}
		time.Sleep(time.Millisecond)
	}
	if maxInFlight.Load() != 1 {
		t.Errorf("max in-flight %d, want 1", maxInFlight.Load())
	}
	if launched.Load() == 0 || ran.Load() != launched.Load() {
		t.Errorf("%d tasks ran of %d launched", ran.Load(), launched.Load())
	}
}
