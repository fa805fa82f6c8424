package fleet

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/services"
	"repro/internal/sim"
)

// churnScenario builds a KindChurn fleet: spot VMs joining late,
// preempted VMs leaving early, the rest running the full window.
func churnScenario(t *testing.T, vms int) []sim.VMSpec {
	t.Helper()
	specs, err := sim.GenerateScenario(sim.ScenarioConfig{
		Rng:         rand.New(rand.NewSource(42)),
		Kind:        sim.KindChurn,
		VMs:         vms,
		Days:        1,
		Homogeneous: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// TestFleetChurnMembership runs a churn fleet under concurrent
// stepping (run with -race in CI): joining VMs start at JoinAt,
// preempted VMs stop at LeaveAt, and every VM's record count matches
// its membership window, not the full run.
func TestFleetChurnMembership(t *testing.T) {
	specs := churnScenario(t, 9)
	joins, leaves := 0, 0
	for _, s := range specs {
		if s.JoinAt > 0 {
			joins++
		}
		if s.LeaveAt > 0 {
			leaves++
		}
	}
	if joins == 0 || leaves == 0 {
		t.Fatalf("churn scenario generated no churn: %d joins, %d leaves", joins, leaves)
	}

	res, err := Run(Config{Specs: specs, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		at, err := activeTrace(s)
		if err != nil {
			t.Fatal(err)
		}
		want := sim.Steps(at.Duration(), time.Minute)
		if got := len(res.VMResults[i].Records); got != want {
			t.Errorf("vm %d (join %v leave %v): %d records, want %d", i, s.JoinAt, s.LeaveAt, got, want)
		}
	}
	// Preempted tenants are billed for their active window only.
	for _, tb := range res.Bill.Tenants() {
		if tb.Duration > 24*time.Hour {
			t.Errorf("tenant %s billed for %v, beyond the run window", tb.Tenant, tb.Duration)
		}
	}
}

// TestFleetChurnDeterministic pins churn runs to the seed: two runs
// of the same churn fleet agree exactly despite concurrent workers.
func TestFleetChurnDeterministic(t *testing.T) {
	a, err := Run(Config{Specs: churnScenario(t, 9), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Specs: churnScenario(t, 9), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	compareFleetResults(t, a, b)
}

// TestFleetChurnMixShiftsFleetAbsolute: MixShifts.At is fleet-absolute
// time, like JoinAt. A VM joining at 6 h with a shift at 4 h runs its
// whole window on the shifted mix; with the shift at 9 h it switches 3 h
// into its window. Each is held against a from-the-start VM that says
// so directly.
func TestFleetChurnMixShiftsFleetAbsolute(t *testing.T) {
	base := scenario(t, 1, true, false)[0]
	alt := base.Service.(*services.Cassandra).ReadMostlyMix()
	window, err := base.RunTrace.Slice(6, base.RunTrace.Len())
	if err != nil {
		t.Fatal(err)
	}
	vm := func(joinAt time.Duration, mix services.Mix, shifts ...sim.MixShift) sim.VMSpec {
		s := base
		s.JoinAt, s.Mix, s.MixShifts = joinAt, mix, shifts
		if joinAt == 0 {
			s.RunTrace = window
		}
		return s
	}
	// VM 0 only gives the template its learning day (on the base mix).
	specs := []sim.VMSpec{
		base,
		vm(6*time.Hour, base.Mix, sim.MixShift{At: 4 * time.Hour, Mix: alt}),
		vm(0, alt),
		vm(6*time.Hour, base.Mix, sim.MixShift{At: 9 * time.Hour, Mix: alt}),
		vm(0, base.Mix, sim.MixShift{At: 3 * time.Hour, Mix: alt}),
	}
	res, err := Run(Config{Specs: specs, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	vr := res.VMResults
	compareVMRecords(t, []*sim.Result{vr[2], vr[4]}, []*sim.Result{vr[1], vr[3]})
	if reflect.DeepEqual(vr[1].Records, vr[3].Records) {
		t.Error("the shift's offset made no difference to the joiner's run")
	}
	if at := specs[1].MixShifts[0].At; at != 4*time.Hour {
		t.Errorf("the run rewrote the spec's schedule: shift now at %v", at)
	}
}

// TestActiveTraceWindows pins the membership-window slicing rules.
func TestActiveTraceWindows(t *testing.T) {
	spec := scenario(t, 1, true, false)[0]
	full, err := activeTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	if full != spec.RunTrace {
		t.Error("windowless VM should run its trace as-is")
	}

	spec.JoinAt, spec.LeaveAt = 3*time.Hour, 20*time.Hour
	sub, err := activeTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 17 {
		t.Errorf("window [3h, 20h) has %d samples, want 17", sub.Len())
	}
	if sub.Loads[0] != spec.RunTrace.Loads[3] {
		t.Error("window should start at the JoinAt sample")
	}

	spec.JoinAt, spec.LeaveAt = 20*time.Hour, 3*time.Hour
	if _, err := activeTrace(spec); err == nil {
		t.Error("inverted window should error")
	}
	spec.JoinAt, spec.LeaveAt = 0, 48*time.Hour
	if _, err := activeTrace(spec); err == nil {
		t.Error("window beyond the trace should error")
	}
}

// TestStepArenaDrainSafety is the regression test for the removal
// fix: slots of departed VMs must stay intact — never compacted, never
// reused — even while joins force the arena onto new blocks, so
// records held by live VMs cannot be stomped. Run with -race: joins
// and slot writes happen concurrently.
func TestStepArenaDrainSafety(t *testing.T) {
	// Two shards, tiny capacity: every shard's first block is smaller
	// than its VMs' demand, forcing block turnover under churn.
	const shards = 2
	arena := newStepArena(64, shards)
	const vms = 32
	const stepsPer = 16

	slots := make([][]sim.StepRecord, vms)
	var wg sync.WaitGroup
	for i := 0; i < vms; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			worker := i % shards
			slot := arena.acquire(worker, stepsPer)
			if len(slot) != 0 || cap(slot) != stepsPer {
				t.Errorf("vm %d slot len %d cap %d, want 0/%d", i, len(slot), cap(slot), stepsPer)
			}
			// Step: fill the slot with VM-tagged records while other
			// VMs join, forcing new blocks.
			for s := 0; s < stepsPer; s++ {
				slot = append(slot, sim.StepRecord{Clients: float64(i*stepsPer + s)})
			}
			slots[i] = slot
		}(i)
	}
	wg.Wait()

	// Every slot still holds exactly the records
	// its VM wrote: no reuse, no compaction, no cross-VM stomping.
	for i, slot := range slots {
		for s, rec := range slot {
			if want := float64(i*stepsPer + s); rec.Clients != want {
				t.Fatalf("vm %d step %d: record tagged %v, want %v (slot memory was reused)", i, s, rec.Clients, want)
			}
		}
	}
}

// TestStepArenaOversizedAcquire covers a join larger than any block.
func TestStepArenaOversizedAcquire(t *testing.T) {
	arena := newStepArena(8, 1)
	small := arena.acquire(0, 8)
	big := arena.acquire(0, 100)
	if cap(big) != 100 {
		t.Fatalf("oversized slot cap %d, want 100", cap(big))
	}
	small = append(small, sim.StepRecord{Clients: 7})
	big = append(big, sim.StepRecord{Clients: 9})
	if small[0].Clients != 7 || big[0].Clients != 9 {
		t.Error("slots on different blocks interfered")
	}
}
