//go:build !race

package sim_test

import (
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/sim"
	"repro/internal/testkit"
	"repro/internal/trace"
)

// The race detector changes allocation counts, so this pin builds only
// without it; CI's allocs job runs it.

// TestRunStepLoopAllocs: the step loop itself allocates nothing — a
// discarding run costs the same allocations for an hour as for a day,
// stepped every minute (a baseline under host interference) or in
// spans (DejaVu with both reactions off, no interference). The DejaVu
// case runs a flat load, so it decides once however long the run, and
// what a decision allocates (the controller's adaptation log, sized on
// the first one) is the same for an hour as for a day. Applying the
// decision allocates nothing (cloud's TestDeploymentApplyZeroAlloc).
func TestRunStepLoopAllocs(t *testing.T) {
	k := newVMKits(t)[0]
	flat := &trace.Trace{Step: time.Hour, Loads: make([]float64, 24)}
	for i := range flat.Loads {
		flat.Loads[i] = k.spec.RunTrace.Loads[0]
	}
	for _, c := range []struct {
		name         string
		run          *trace.Trace
		shifts       []sim.MixShift
		interference func(time.Duration) float64
		controller   func() sim.Controller
	}{
		{"fixed max, every minute", k.spec.RunTrace, []sim.MixShift{{At: 30 * time.Minute, Mix: k.alt}}, k.spec.Interference,
			func() sim.Controller { return baseline.NewFixedMax(k.spec.Service) }},
		{"dejavu, spans", flat, nil, nil, func() sim.Controller { return k.controllerWith(t, false, false) }},
	} {
		run := func(hours int) func() {
			tr, err := c.run.Slice(0, hours)
			if err != nil {
				t.Fatal(err)
			}
			cfg := k.config(nil)
			cfg.Trace, cfg.MixShifts, cfg.Interference = tr, c.shifts, c.interference
			cfg.DiscardRecords = true
			return func() {
				cfg.Controller = c.controller() // fresh: a controller's state is per run
				if _, err := sim.Run(cfg); err != nil {
					t.Fatal(err)
				}
			}
		}
		if hour, day := testing.AllocsPerRun(20, run(1)), testing.AllocsPerRun(20, run(24)); hour != day {
			t.Errorf("%s: allocations grow with the step count: %v for 60 steps, %v for 1440", c.name, hour, day)
			t.Log(testkit.AllocSites(20, run(24)))
		}
	}
}
