//go:build !race

package fleet

import (
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/testkit"
)

// The race detector changes allocation counts, so these pins build
// only without it; CI's allocs job runs them.

// fleetRun returns one Workers=1 Run of a freshly generated seed-42
// homogeneous one-day fleet of the given size.
func fleetRun(t *testing.T, vms int) func() {
	specs := scaleScenario(t, sim.KindBaseline, vms)
	return func() {
		if _, err := Run(Config{Specs: specs, Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
}

// fleetRunAllocs is the mean heap allocations of one fleetRun, spec
// generation excluded and one warm-up run discarded.
func fleetRunAllocs(t *testing.T, vms int) float64 {
	t.Helper()
	const runs = 3
	var total uint64
	for i := 0; i <= runs; i++ {
		run := fleetRun(t, vms)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		if i > 0 {
			total += after.Mallocs - before.Mallocs
		}
	}
	return float64(total) / runs
}

// TestFleetRunAllocs bounds what a fleet run allocates: the whole run
// at 100 VMs (learning included), and the marginal cost of a VM, which
// is what a 100k-VM fleet multiplies.
func TestFleetRunAllocs(t *testing.T) {
	// Measured 3 229 and 2.0 once a worker's kit held the VM's runner,
	// controller and shared tuner, reset per VM, + 10 %: what is left
	// per VM is its Result and its episode list.
	const (
		maxRunAllocs = 3552
		maxPerVM     = 2.2
	)
	at100 := fleetRunAllocs(t, 100)
	if at100 > maxRunAllocs {
		t.Errorf("fleet.Run at 100 VMs allocates %.0f times, bound %d", at100, maxRunAllocs)
		t.Log(testkit.AllocSites(1, fleetRun(t, 100)))
	}
	perVM := (fleetRunAllocs(t, 200) - at100) / 100
	t.Logf("%.0f allocations at 100 VMs, %.1f per added VM", at100, perVM)
	if perVM > maxPerVM {
		t.Errorf("fleet.Run allocates %.1f times per added VM (200 VMs vs 100), bound %.1f", perVM, maxPerVM)
		t.Log(testkit.AllocSites(1, fleetRun(t, 200)))
	}
}

// TestLockstepAllocs bounds what one VM of a lockstep block allocates,
// the block's own bookkeeping included (BenchmarkLockstepBlock's
// allocs/VM).
func TestLockstepAllocs(t *testing.T) {
	// Measured 2.02 once each member's kit held its runner, controller
	// and shared tuner, reset per VM (8.02 with them built per VM, 20.5
	// with a goroutine per VM), + 10 %.
	const maxPerVM = 2.22
	step, vms := lockstepBlock(t)
	step() // warm the worker's kit
	perVM := testing.AllocsPerRun(5, step) / float64(vms)
	t.Logf("%.2f allocations per VM of a %d-VM block", perVM, vms)
	if perVM > maxPerVM {
		t.Errorf("a lockstep block allocates %.2f times per VM, bound %.2f", perVM, maxPerVM)
		t.Log(testkit.AllocSites(1, step))
	}
}
