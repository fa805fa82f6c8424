//go:build !race

package main

import (
	"io"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// The race detector changes allocation counts, so this pin builds only
// without it; CI's allocs job runs it.

// TestRunFleetAllocs bounds the heap bytes -fleet allocates per added
// VM far below one VM-day of step records (1 440 records, 69 KB): the
// report prints only aggregates, so no VM keeps its records. Measured
// 1 240 B per VM (70 375 B while every VM kept its records).
func TestRunFleetAllocs(t *testing.T) {
	const maxPerVM = 2048
	bytesAt := func(vms int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := runFleet(io.Discard, vms, 1, 2, 42, "baseline", false, false, "", ""); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	bytesAt(100) // warm-up: the first run pays for one-time set-up
	perVM := (bytesAt(400) - bytesAt(200)) / 200
	vmDay := 24 * 60 * unsafe.Sizeof(sim.StepRecord{})
	t.Logf("%.0f B per added VM; one VM-day of records is %d B", perVM, vmDay)
	if perVM > maxPerVM {
		t.Errorf("-fleet allocates %.0f B per added VM, bound %d", perVM, maxPerVM)
	}
}
