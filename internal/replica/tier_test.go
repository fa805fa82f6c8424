package replica_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/sim"
)

// tierReplicas names a fault-free three-replica tier.
var tierReplicas = []string{"t0", "t1", "t2"}

// TestFleetTierLockstepEquivalence: a fleet whose client reaches the
// decision front over binary HTTP steps in lockstep blocks — two blocks
// of 20 on two workers, one frame per block per hourly profiling round
// — and every frame crosses the tier whole: the front relays it as one
// batch and one replica serves it as one lookup frame. Step records
// match the in-process run's.
func TestFleetTierLockstepEquivalence(t *testing.T) {
	const vms, workers, rounds = 40, 2, 24
	const frames, rows = 2 * rounds, vms * rounds
	local, err := fleet.Run(fleet.Config{Specs: homogeneousFleet(t, sim.KindBaseline, vms, 1), Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	tr := startTier(t, tierReplicas, chaos.Config{}, nil)
	remote, err := fleet.Run(fleet.Config{Specs: homogeneousFleet(t, sim.KindBaseline, vms, 1), Workers: workers, Remote: tr.cl})
	if err != nil {
		t.Fatal(err)
	}
	compareVMRecords(t, local, remote)

	if st := tr.front.Stats(); st.Batches != frames || st.Decisions != rows || st.Errors != 0 {
		t.Errorf("front relayed %d batches of %d rows (%d errors), want %d frames of %d rows in all",
			st.Batches, st.Decisions, st.Errors, frames, rows)
	}
	var served, decided int64
	for _, m := range tr.members {
		st := m.srv.StatsSnapshot()
		served += st.LookupReqs
		decided += st.Decisions
	}
	if served != frames || decided != rows {
		t.Errorf("replicas served %d lookup frames of %d rows, want %d of %d", served, decided, frames, rows)
	}
}

// TestFleetTierLockstepAbort closes the front's listener, and every
// connection to it, before the front relays the tenth lookup frame:
// every VM of the fleet fails with its block, under its own name, and
// once the tier is down no goroutine is left behind.
func TestFleetTierLockstepAbort(t *testing.T) {
	const vms, workers, closeAt = 40, 2, 10
	before := runtime.NumGoroutine()
	tr := startTier(t, tierReplicas, chaos.Config{}, func(tr *tier, frame int) {
		if frame == closeAt {
			tr.fs.Listener.Close()
			tr.fs.CloseClientConnections()
		}
	})
	specs := homogeneousFleet(t, sim.KindBaseline, vms, 1)
	_, err := fleet.Run(fleet.Config{Specs: specs, Workers: workers, Remote: tr.cl})
	if err == nil {
		t.Fatal("fleet run survived its front")
	}
	msg := err.Error()
	for i, spec := range specs {
		if prefix := fmt.Sprintf("fleet: vm %d (%s): lockstep block aborted", i, spec.Name); !strings.Contains(msg, prefix) {
			t.Errorf("run error has no %q: %.300s", prefix, msg)
		}
	}
	tr.stop()
	waitGoroutines(t, before)
}

// waitGoroutines waits for the goroutine count to fall back to want:
// connection handlers and idle-connection readers take a moment to
// notice their socket closed.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > want {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines, %d before the run:\n%s", got, want, buf[:runtime.Stack(buf, true)])
	}
}

// BenchmarkFleetTier steps a 200-VM heterogeneous fleet through the
// decision front over three loopback replicas — the lockstep path over
// the front's HTTP hop end to end. frames/VM is the front's lookup
// frames per VM per run (24 without lockstep: one per profiling
// round).
func BenchmarkFleetTier(b *testing.B) {
	const vms = 200
	tr := startTier(b, tierReplicas, chaos.Config{}, nil)
	var steps, frames int64
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		specs, err := sim.GenerateScenario(sim.ScenarioConfig{Rng: rand.New(rand.NewSource(42)), VMs: vms, Days: 1})
		if err != nil {
			b.Fatal(err)
		}
		sent := tr.front.Stats().Batches
		b.StartTimer()
		res, err := fleet.Run(fleet.Config{Specs: specs, DiscardRecords: true, Remote: tr.cl})
		if err != nil {
			b.Fatal(err)
		}
		steps += int64(res.TotalSteps)
		elapsed += res.Elapsed
		frames += tr.front.Stats().Batches - sent
	}
	b.ReportMetric(float64(steps)/elapsed.Seconds(), "steps/s")
	b.ReportMetric(float64(frames)/float64(b.N*vms), "frames/VM")
}
