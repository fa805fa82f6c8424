//go:build !race

package sim

import (
	"math/rand"
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

// TestGenerateScenarioTraceReplayAllocs: a trace-replay fleet costs
// under 0.1 allocations and 800 B per VM, the fleet-wide slices. Every
// VM's cluster recording and resampled week reuse one buffer each,
// grown once for the fleet, and no MixFn closure is built.
func TestGenerateScenarioTraceReplayAllocs(t *testing.T) {
	const vms = 2000
	gen := func() {
		if _, err := GenerateScenario(ScenarioConfig{Rng: rand.New(rand.NewSource(42)), Kind: KindTraceReplay, VMs: vms, Days: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gen()
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / vms
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / vms
	if allocs > 0.1 || bytes > 800 {
		t.Errorf("generating %d trace-replay VMs: %.2f allocations and %.0f B per VM, want at most 0.1 and 800", vms, allocs, bytes)
		t.Log(testkit.AllocSites(1, gen))
	}
}
