package baseline

import (
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/services"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestNewModelBasedValidation(t *testing.T) {
	slo := services.SLO{MaxLatencyMs: 60}
	if _, err := NewModelBased(cloud.Large, 0, 10, slo); err == nil {
		t.Error("min=0 should error")
	}
	if _, err := NewModelBased(cloud.Large, 5, 2, slo); err == nil {
		t.Error("max<min should error")
	}
	if _, err := NewModelBased(cloud.Large, 2, 10, services.SLO{MinQoSPercent: 95}); err == nil {
		t.Error("QoS-only SLO should error (latency model)")
	}
}

func TestModelBasedHandlesVolumeChangesInstantly(t *testing.T) {
	svc := services.NewCassandra()
	mb, err := NewModelBased(cloud.Large, svc.MinInstances, svc.MaxInstances, svc.SLO())
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up plateau for calibration, then volume steps.
	loads := make([]float64, 240)
	for i := range loads {
		switch {
		case i < 60:
			loads[i] = 150
		case i < 120:
			loads[i] = 300
		case i < 180:
			loads[i] = 450
		default:
			loads[i] = 150
		}
	}
	tr := &trace.Trace{Name: "steps", Step: time.Minute, Loads: loads}
	res, err := sim.Run(sim.Config{
		Service:    svc,
		Trace:      tr,
		Controller: mb,
		Initial:    cloud.Allocation{Type: cloud.Large, Count: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Volume-only changes: no recalibration.
	if mb.Recalibrations() != 0 {
		t.Errorf("volume changes triggered %d recalibrations", mb.Recalibrations())
	}
	// After the initial calibration window, the SLO is held except
	// warm-up/stabilization transients.
	bad := 0
	for _, rec := range res.Records[60:] {
		if rec.SLOViolated {
			bad++
		}
	}
	if frac := float64(bad) / float64(len(res.Records)-60); frac > 0.3 {
		t.Errorf("post-calibration violations=%v want <= 0.3", frac)
	}
	// It must actually scale with the volume.
	if res.Decisions < 3 {
		t.Errorf("decisions=%d want >= 3", res.Decisions)
	}
}

func TestModelBasedRecalibratesOnMixChange(t *testing.T) {
	svc := services.NewCassandra()
	mb, err := NewModelBased(cloud.Large, svc.MinInstances, svc.MaxInstances, svc.SLO())
	if err != nil {
		t.Fatal(err)
	}
	mb.CalibrationTime = 10 * time.Minute

	heavy := svc.DefaultMix()    // demand 1.0
	light := svc.ReadMostlyMix() // demand 0.75
	loads := make([]float64, 240)
	for i := range loads {
		loads[i] = 300
	}
	tr := &trace.Trace{Name: "mixswitch", Step: time.Minute, Loads: loads}
	res, err := sim.Run(sim.Config{
		Service:    svc,
		Trace:      tr,
		Controller: mb,
		Initial:    cloud.Allocation{Type: cloud.Large, Count: 6},
		// Switch the request mix twice.
		Mix:       heavy,
		MixShifts: []sim.MixShift{{At: 80 * time.Minute, Mix: light}, {At: 160 * time.Minute, Mix: heavy}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mb.Recalibrations() < 2 {
		t.Errorf("mix switches should force recalibrations, got %d", mb.Recalibrations())
	}
	_ = res
}

func TestModelBasedWaitsForUsableObservation(t *testing.T) {
	svc := services.NewCassandra()
	mb, _ := NewModelBased(cloud.Large, 2, 10, svc.SLO())
	// Saturated observation (rho >= 0.95): calibration must wait.
	obs := sim.Observation{
		Workload:         services.Workload{Clients: 5000, Mix: svc.DefaultMix()},
		Perf:             svc.Perf(services.Workload{Clients: 5000, Mix: svc.DefaultMix()}, 2),
		Allocation:       cloud.Allocation{Type: cloud.Large, Count: 2},
		TargetAllocation: cloud.Allocation{Type: cloud.Large, Count: 2},
	}
	act, err := mb.Step(&obs)
	if err != nil {
		t.Fatal(err)
	}
	if act.Target != nil {
		t.Error("uncalibrated controller must not act on a saturated sample")
	}
}
