package fleet

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/sim"
)

// scaleScenario builds a seed-42 fleet of the given kind and size, the
// same generator call the scale benchmarks use.
func scaleScenario(t testing.TB, kind sim.ScenarioKind, vms int) []sim.VMSpec {
	t.Helper()
	specs, err := sim.GenerateScenario(sim.ScenarioConfig{
		Rng:         rand.New(rand.NewSource(42)),
		Kind:        kind,
		VMs:         vms,
		Days:        1,
		Homogeneous: true,
	})
	if err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	return specs
}

// TestFleetScaleWorkersInvariance is the at-scale version of the
// workers-invariance property: at vms=1000 — large enough that every
// run-phase mechanism the scale work added is exercised (template-major
// ordering, per-worker arena shards with block turnover, shared
// per-template memo and tuner prototype) — a sequential run and an
// all-core run still agree byte-for-byte, for every scenario kind.
func TestFleetScaleWorkersInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("two 1000-VM fleet runs per scenario kind")
	}
	workers := runtime.NumCPU()
	if workers < 2 {
		// One hardware thread still pins the dynamic-claiming and
		// sharding paths; use a few workers so they interleave.
		workers = 4
	}
	kinds := append([]sim.ScenarioKind{sim.KindBaseline}, sim.AdversarialKinds()...)
	for _, kind := range kinds {
		sequential, err := Run(Config{Specs: scaleScenario(t, kind, 1000), Workers: 1})
		if err != nil {
			t.Fatalf("%s sequential: %v", kind, err)
		}
		concurrent, err := Run(Config{Specs: scaleScenario(t, kind, 1000), Workers: workers})
		if err != nil {
			t.Fatalf("%s concurrent: %v", kind, err)
		}
		t.Run(kind.String(), func(t *testing.T) {
			compareFleetResults(t, sequential, concurrent)
		})
	}
}

// TestFleetDiscardRecordsEquivalence pins the DiscardRecords contract:
// a discarding run reports exactly the aggregates of a recording run —
// same steps, costs, SLO fractions, decisions, episodes, mean
// allocations, and shared-cache counters — with no records held.
func TestFleetDiscardRecordsEquivalence(t *testing.T) {
	kind := sim.KindChurn // joins and leaves exercise the no-arena path
	recording, err := Run(Config{Specs: scaleScenario(t, kind, 24), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	discarding, err := Run(Config{Specs: scaleScenario(t, kind, 24), Workers: 4, DiscardRecords: true})
	if err != nil {
		t.Fatal(err)
	}

	if discarding.TotalSteps != recording.TotalSteps {
		t.Errorf("total steps: %d vs %d", discarding.TotalSteps, recording.TotalSteps)
	}
	if len(discarding.Groups) != len(recording.Groups) {
		t.Fatalf("groups: %d vs %d", len(discarding.Groups), len(recording.Groups))
	}
	for i := range recording.Groups {
		if discarding.Groups[i] != recording.Groups[i] {
			t.Errorf("group %d diverged: %+v vs %+v", i, discarding.Groups[i], recording.Groups[i])
		}
	}
	for i := range recording.VMResults {
		rv, dv := recording.VMResults[i], discarding.VMResults[i]
		if len(dv.Records) != 0 {
			t.Fatalf("vm %d: discarding run kept %d records", i, len(dv.Records))
		}
		if dv.Steps != rv.Steps || dv.Steps != len(rv.Records) {
			t.Errorf("vm %d steps: discard %d, record %d (%d records)", i, dv.Steps, rv.Steps, len(rv.Records))
		}
		if dv.TotalCost != rv.TotalCost || dv.SLOViolationFraction != rv.SLOViolationFraction ||
			dv.Decisions != rv.Decisions {
			t.Errorf("vm %d summary diverged: cost %v/%v, slo %v/%v, decisions %d/%d",
				i, dv.TotalCost, rv.TotalCost, dv.SLOViolationFraction, rv.SLOViolationFraction,
				dv.Decisions, rv.Decisions)
		}
		if math.Abs(dv.MeanAllocatedInstances()-rv.MeanAllocatedInstances()) > 1e-12 {
			t.Errorf("vm %d mean allocation: %v vs %v", i, dv.MeanAllocatedInstances(), rv.MeanAllocatedInstances())
		}
		if len(dv.Episodes) != len(rv.Episodes) {
			t.Fatalf("vm %d episodes: %d vs %d", i, len(dv.Episodes), len(rv.Episodes))
		}
		for e := range rv.Episodes {
			if dv.Episodes[e] != rv.Episodes[e] {
				t.Errorf("vm %d episode %d diverged: %+v vs %+v", i, e, dv.Episodes[e], rv.Episodes[e])
			}
		}
	}
}

// TestStepArenaShardedStress hammers a small sharded arena from many
// goroutines per shard (run with -race): every shard's first block is
// far smaller than its demand, so the stress constantly turns blocks
// over while neighbours write into outstanding slots.
// The invariant is the arena's reason to exist: once handed out, a
// slot's memory is never moved and never reissued.
func TestStepArenaShardedStress(t *testing.T) {
	const (
		shards      = 4
		perShard    = 8 // goroutines hammering each shard
		acquires    = 50
		maxSlotSize = 7 // deliberately misaligned with block size
	)
	// Per-shard blocks hold 4 records: nearly every acquire starts a
	// new block.
	arena := newStepArena(4*shards, shards)

	type slotRec struct {
		tag  float64
		slot []sim.StepRecord
	}
	results := make([][]slotRec, shards*perShard)
	var wg sync.WaitGroup
	for gid := 0; gid < shards*perShard; gid++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			worker := gid % shards
			kept := make([]slotRec, 0, acquires)
			for a := 0; a < acquires; a++ {
				n := 1 + (gid+a)%maxSlotSize
				slot := arena.acquire(worker, n)
				tag := float64(gid*acquires + a)
				for s := 0; s < n; s++ {
					slot = append(slot, sim.StepRecord{Clients: tag, LatencyMs: float64(s)})
				}
				// Keep every slot to verify nothing was stomped after
				// the fact.
				kept = append(kept, slotRec{tag: tag, slot: slot})
			}
			results[gid] = kept
		}(gid)
	}
	wg.Wait()

	for gid, kept := range results {
		for _, sr := range kept {
			for s, rec := range sr.slot {
				if rec.Clients != sr.tag || rec.LatencyMs != float64(s) {
					t.Fatalf("goroutine %d slot tagged %v step %d: got tag %v step %v (slot memory reused or moved)",
						gid, sr.tag, s, rec.Clients, rec.LatencyMs)
				}
			}
		}
	}
}
