// Package baseline implements the resource-management policies DejaVu
// is compared against in the paper's evaluation: the fixed
// full-capacity overprovisioning reference, the time-based Autopilot
// controller that blindly repeats the learning day's allocations, a
// RightScale-style threshold-voting autoscaler reproduced from public
// information (paper §4.1), and the state-of-the-art "always re-tune"
// controller behind the motivating Figure 1.
package baseline

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/services"
	"repro/internal/sim"
)

// FixedMax always keeps the service's full-capacity allocation — the
// paper's overprovisioning reference ("the approach that always
// overprovisions the service to ensure the SLO is met").
type FixedMax struct {
	// Allocation is the full-capacity configuration.
	Allocation cloud.Allocation
}

// NewFixedMax returns the overprovisioning controller for a service.
func NewFixedMax(svc services.Service) *FixedMax {
	return &FixedMax{Allocation: svc.MaxAllocation()}
}

// Name implements sim.Controller.
func (f *FixedMax) Name() string { return "fixedmax" }

// Step implements sim.Controller.
func (f *FixedMax) Step(obs *sim.Observation) (sim.Action, error) {
	if obs.TargetAllocation.Equal(f.Allocation) {
		return sim.Action{}, nil
	}
	target := f.Allocation
	return sim.Action{Target: &target}, nil
}

// Autopilot repeats the hourly resource allocations learned during the
// first day of the trace at the corresponding hours of later days
// ("a time-based controller which attempts to leverage the re-occurring
// patterns in the workload by repeating the resource allocations
// determined during the learning phase at appropriate times").
type Autopilot struct {
	// Schedule holds one allocation per hour of day.
	Schedule [24]cloud.Allocation
}

// LearnAutopilotSchedule tunes one allocation per learning-day hour.
// workloads must contain exactly 24 hourly workloads.
func LearnAutopilotSchedule(tuner core.Tuner, workloads []services.Workload) (*Autopilot, error) {
	if len(workloads) != 24 {
		return nil, fmt.Errorf("baseline: autopilot needs 24 hourly workloads, got %d", len(workloads))
	}
	if tuner == nil {
		return nil, errors.New("baseline: nil tuner")
	}
	ap := &Autopilot{}
	for h, w := range workloads {
		alloc, err := tuner.Tune(w, 0)
		if err != nil {
			return nil, fmt.Errorf("baseline: tuning hour %d: %w", h, err)
		}
		ap.Schedule[h] = alloc
	}
	return ap, nil
}

// Name implements sim.Controller.
func (a *Autopilot) Name() string { return "autopilot" }

// Step implements sim.Controller: apply the allocation recorded for
// this hour of day. The decision itself is instantaneous (a timer).
func (a *Autopilot) Step(obs *sim.Observation) (sim.Action, error) {
	hour := int(obs.Now/time.Hour) % 24
	want := a.Schedule[hour]
	if err := want.Validate(); err != nil {
		return sim.Action{}, fmt.Errorf("baseline: autopilot hour %d: %w", hour, err)
	}
	if obs.TargetAllocation.Equal(want) {
		return sim.Action{}, nil
	}
	target := want
	return sim.Action{Target: &target}, nil
}

// RightScale reproduces the RightScale autoscaling algorithm from the
// paper's description: "If the majority of VMs report utilization that
// is higher than the predefined threshold, the scale-up action is
// taken by increasing the number of instances (by two at a time, by
// default). In contrast, if the instances agree that the overall
// utilization is below the specified threshold, the scaling down is
// performed (decrease the number of instances by one, by default)",
// with a "resize calm time" between successive adjustments.
type RightScale struct {
	// Type is the instance type to scale.
	Type cloud.InstanceType
	// Min and Max bound the instance count.
	Min, Max int
	// UpThreshold and DownThreshold are the utilization votes.
	UpThreshold, DownThreshold float64
	// UpStep and DownStep are the resize increments (defaults +2/-1).
	UpStep, DownStep int
	// CalmTime is the minimum time between successive resizes
	// (paper: 3 minutes minimum, 15 minutes recommended).
	CalmTime time.Duration

	lastResize   time.Duration
	inEpisode    bool
	episodeSizes int
	episodes     []time.Duration
}

// NewRightScale returns a RightScale controller with the defaults the
// paper assumes.
func NewRightScale(typ cloud.InstanceType, min, max int, calm time.Duration) (*RightScale, error) {
	if min <= 0 || max < min {
		return nil, fmt.Errorf("baseline: bad rightscale range [%d, %d]", min, max)
	}
	if calm <= 0 {
		return nil, errors.New("baseline: calm time must be positive")
	}
	return &RightScale{
		Type:          typ,
		Min:           min,
		Max:           max,
		UpThreshold:   0.80,
		DownThreshold: 0.40,
		UpStep:        2,
		DownStep:      1,
		CalmTime:      calm,
		lastResize:    -1 << 62,
	}, nil
}

// Name implements sim.Controller.
func (r *RightScale) Name() string { return "rightscale" }

// Step implements sim.Controller.
func (r *RightScale) Step(obs *sim.Observation) (sim.Action, error) {
	// Within the calm period RightScale must "first observe the
	// reconfigured service before it can take any other resizing
	// action".
	if obs.Now-r.lastResize < r.CalmTime {
		return sim.Action{}, nil
	}
	rho := obs.Perf.Utilization
	count := obs.TargetAllocation.Count
	next := count
	switch {
	case rho > r.UpThreshold:
		next = count + r.UpStep
	case rho < r.DownThreshold:
		next = count - r.DownStep
	}
	if next > r.Max {
		next = r.Max
	}
	if next < r.Min {
		next = r.Min
	}
	if next == count {
		// Converged: close any open adaptation episode. The paper
		// counts a single sufficient resize as instantaneous, so
		// the episode cost is (resizes-1) x calm time.
		if r.inEpisode {
			r.episodes = append(r.episodes, time.Duration(r.episodeSizes-1)*r.CalmTime)
			r.inEpisode = false
		}
		return sim.Action{}, nil
	}
	if !r.inEpisode {
		r.inEpisode = true
		r.episodeSizes = 0
	}
	r.episodeSizes++
	r.lastResize = obs.Now
	target := cloud.Allocation{Type: r.Type, Count: next}
	return sim.Action{Target: &target}, nil
}

// AdaptationTimes returns the per-episode convergence times:
// (resizes-1) x calm time, matching the paper's accounting for
// Figure 8.
func (r *RightScale) AdaptationTimes() []time.Duration {
	return append([]time.Duration(nil), r.episodes...)
}

// Retuner is the state-of-the-art controller of Figure 1: every time
// it detects a workload change it re-runs the full experimental tuning
// process, leaving the service with a stale allocation for the entire
// tuning duration.
type Retuner struct {
	// Tuner runs the experiments.
	Tuner core.Tuner
	// ChangeThreshold is the relative load change that triggers
	// re-tuning (default 0.15).
	ChangeThreshold float64

	lastTunedClients float64
	busyUntil        time.Duration
	adaptations      []time.Duration
}

// NewRetuner wraps a tuner into the always-re-tune controller.
func NewRetuner(tuner core.Tuner) (*Retuner, error) {
	if tuner == nil {
		return nil, errors.New("baseline: nil tuner")
	}
	return &Retuner{Tuner: tuner, ChangeThreshold: 0.15, lastTunedClients: -1, busyUntil: -1}, nil
}

// Name implements sim.Controller.
func (rt *Retuner) Name() string { return "retuner" }

// Step implements sim.Controller.
func (rt *Retuner) Step(obs *sim.Observation) (sim.Action, error) {
	if obs.Now < rt.busyUntil {
		return sim.Action{}, nil // still "running experiments"
	}
	clients := obs.Workload.Clients
	if rt.lastTunedClients >= 0 {
		ref := rt.lastTunedClients
		if ref <= 0 {
			ref = 1
		}
		if abs(clients-rt.lastTunedClients)/ref < rt.ChangeThreshold {
			return sim.Action{}, nil
		}
	}
	alloc, err := rt.Tuner.Tune(obs.Workload, 0)
	if err != nil {
		return sim.Action{}, err
	}
	d := rt.Tuner.Duration()
	rt.lastTunedClients = clients
	rt.busyUntil = obs.Now + d
	rt.adaptations = append(rt.adaptations, d)
	if alloc.Equal(obs.TargetAllocation) {
		return sim.Action{}, nil
	}
	target := alloc
	return sim.Action{Target: &target, DecisionTime: d}, nil
}

// AdaptationTimes returns the tuning duration of every re-tuning
// episode.
func (rt *Retuner) AdaptationTimes() []time.Duration {
	return append([]time.Duration(nil), rt.adaptations...)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

var (
	_ sim.Controller = (*FixedMax)(nil)
	_ sim.Controller = (*Autopilot)(nil)
	_ sim.Controller = (*RightScale)(nil)
	_ sim.Controller = (*Retuner)(nil)
)
