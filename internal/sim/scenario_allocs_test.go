//go:build !race

package sim

import (
	"runtime"
	"testing"

	"repro/internal/testkit"
)

// The race detector changes allocation counts, so this pin builds only
// without it; CI's allocs job runs it.

// TestGenerateScenarioAllocs: generating a fleet costs about one
// allocation and under 1.1 KB per VM. The samples, traces, shifts and
// names of the whole fleet live in a few fleet-wide slices; what is
// left per VM is the deprecated MixFn closure.
func TestGenerateScenarioAllocs(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	benchScenario(t)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / benchScenarioVMs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / benchScenarioVMs
	if allocs > 1.1 || bytes > 1100 {
		t.Errorf("generating %d VMs: %.2f allocations and %.0f B per VM, want at most 1.1 and 1100",
			benchScenarioVMs, allocs, bytes)
		t.Log(testkit.AllocSites(1, func() { benchScenario(t) }))
	}
}
