package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/services"
	"repro/internal/testkit"
)

// TestProfileIntoMatchesLegacyProfile: the allocation-free ProfileInto
// path must consume the same RNG stream and produce bit-identical
// values to the legacy Profile/ProfileWindow API at a fixed seed, for
// every service and for both explicit event subsets and the full
// catalog (events == nil).
func TestProfileIntoMatchesLegacyProfile(t *testing.T) {
	svcs := []services.Service{services.NewCassandra(), services.NewSPECWeb(), services.NewRUBiS()}
	eventSets := [][]metrics.Event{
		nil, // full catalog
		{metrics.EvBusqEmpty, metrics.EvCPUClkUnhalt},
		{metrics.EvFlopsRate, metrics.EvXenNetTx, metrics.EvPageWalks},
	}
	for _, svc := range svcs {
		for setIdx, events := range eventSets {
			legacyProf, err := NewProfiler(svc, rand.New(rand.NewSource(99)))
			if err != nil {
				t.Fatal(err)
			}
			fastProf, err := NewProfiler(svc, rand.New(rand.NewSource(99)))
			if err != nil {
				t.Fatal(err)
			}
			var sig Signature
			for round := 0; round < 5; round++ {
				w := services.Workload{Clients: 100 + 50*float64(round), Mix: svc.DefaultMix()}
				legacy, err := legacyProf.ProfileWindow(w, events, 10*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if err := fastProf.ProfileInto(w, events, 10*time.Second, &sig); err != nil {
					t.Fatal(err)
				}
				if len(sig.Values) != len(legacy.Values) {
					t.Fatalf("%s set %d: width %d != %d", svc.Name(), setIdx, len(sig.Values), len(legacy.Values))
				}
				for i := range legacy.Values {
					if sig.Values[i] != legacy.Values[i] {
						t.Fatalf("%s set %d round %d: value[%d] fast=%v legacy=%v (event %s)",
							svc.Name(), setIdx, round, i, sig.Values[i], legacy.Values[i], legacy.Events[i])
					}
					if sig.Events[i] != legacy.Events[i] {
						t.Fatalf("%s set %d: event[%d] %s != %s", svc.Name(), setIdx, i, sig.Events[i], legacy.Events[i])
					}
				}
			}
		}
	}
}

// TestProfileIntoReusesBuffers: steady-state profiling must not grow
// the signature buffer and must reuse the cached query monitor.
func TestProfileIntoReusesBuffers(t *testing.T) {
	svc := services.NewCassandra()
	prof, err := NewProfiler(svc, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	events := []metrics.Event{metrics.EvBusqEmpty, metrics.EvCPUClkUnhalt}
	var sig Signature
	w := services.Workload{Clients: 200, Mix: svc.DefaultMix()}
	if err := prof.ProfileInto(w, events, 10*time.Second, &sig); err != nil {
		t.Fatal(err)
	}
	firstBuf := &sig.Values[0]
	allocs := testing.AllocsPerRun(100, func() {
		if err := prof.ProfileInto(w, events, 10*time.Second, &sig); err != nil {
			t.Fatal(err)
		}
	})
	if &sig.Values[0] != firstBuf {
		t.Error("ProfileInto reallocated the signature buffer in steady state")
	}
	if allocs > 0 {
		t.Errorf("ProfileInto allocates %v times per call in steady state, want 0", allocs)
	}
}

// TestClassifySteadyStateAllocationFree locks in the pooled
// standardize scratch: classification must not allocate.
func TestClassifySteadyStateAllocationFree(t *testing.T) {
	repo, _, prof, _ := learnMessengerDay(t, 11)
	sig, err := prof.Profile(services.Workload{Clients: 300, Mix: prof.Service.DefaultMix()}, repo.Events())
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pool.
	if _, _, _, err := repo.Classify(sig); err != nil {
		t.Fatal(err)
	}
	classify := func() {
		if _, _, _, err := repo.Classify(sig); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, classify); allocs > 0 {
		t.Errorf("Classify allocates %v times per call in steady state, want 0", allocs)
		t.Log(testkit.AllocSites(100, classify))
	}
}
