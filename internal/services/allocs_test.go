//go:build !race

package services

import (
	"testing"

	"repro/internal/obs"
)

// TestPerfMemoZeroAlloc: a memo hit — the simulation engine's per-step
// model evaluation — allocates nothing. The race detector changes
// allocation counts, so this file builds only without it; CI's allocs
// job runs it.
func TestPerfMemoZeroAlloc(t *testing.T) {
	svc := NewCassandra()
	memo := NewPerfMemo(svc)
	w := Workload{Clients: 300, Mix: svc.DefaultMix()}
	perf := func() { memo.Perf(&w, 7) }
	perf()
	if allocs := testing.AllocsPerRun(1000, perf); allocs != 0 {
		t.Errorf("PerfMemo.Perf allocates %v times per call in steady state, bound 0", allocs)
		t.Log(obs.AllocSites(1000, perf))
	}
}
