//go:build linux

package fleet

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"time"

	"repro/internal/sim"
)

// processCPU is the CPU time the process has used so far, user and
// system.
func processCPU(tb testing.TB) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkFleetCPU runs the system benchmark's fleet_local shape —
// 10 000 VMs of the seed-42 workload-shift scenario, one day, records
// discarded — at 1 and 2 workers. It reports the run phase's steps/s
// and the process's CPU time per step over the whole Run, learning
// included: how much of a second worker's CPU turns into throughput
// and how much into contention.
func BenchmarkFleetCPU(b *testing.B) {
	specs, err := sim.GenerateScenario(sim.ScenarioConfig{
		Rng:  rand.New(rand.NewSource(42)),
		Kind: sim.KindWorkloadShift,
		VMs:  10000,
		Days: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var steps int
			var elapsed, cpu time.Duration
			for i := 0; i < b.N; i++ {
				before := processCPU(b)
				res, err := Run(Config{Specs: specs, Workers: workers, DiscardRecords: true})
				cpu += processCPU(b) - before
				if err != nil {
					b.Fatal(err)
				}
				steps += res.TotalSteps
				elapsed += res.Elapsed
			}
			b.ReportMetric(float64(steps)/elapsed.Seconds(), "steps/s")
			b.ReportMetric(float64(cpu.Nanoseconds())/float64(steps), "cpu-ns/step")
		})
	}
}
