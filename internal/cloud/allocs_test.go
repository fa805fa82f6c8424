//go:build !race

package cloud

import (
	"testing"
	"time"

	"repro/internal/testkit"
)

// TestDeploymentApplyZeroAlloc: requesting an allocation change and
// settling it once warmed up — what each controller decision costs the
// simulated provider — allocates nothing: the pending allocation is
// stored unboxed. The race detector changes allocation counts, so this
// file builds only without it; CI's allocs job runs it.
func TestDeploymentApplyZeroAlloc(t *testing.T) {
	d, err := NewDeployment(Allocation{Type: Large, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	var now time.Duration
	change := func() {
		next := Allocation{Type: Large, Count: 5 - d.current.Count} // 2 ↔ 3
		if err := d.Apply(now, next); err != nil {
			t.Fatal(err)
		}
		now += time.Hour
		if active, _, pending := d.Status(now); pending || !active.Equal(next) {
			t.Fatalf("at %v: active %v, pending %v; want %v settled", now, active, pending, next)
		}
	}
	if allocs := testing.AllocsPerRun(100, change); allocs != 0 {
		t.Errorf("Deployment.Apply + settle allocates %.1f times, want 0", allocs)
		t.Log(testkit.AllocSites(100, change))
	}
}
