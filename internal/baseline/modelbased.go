package baseline

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/cloud"
	"repro/internal/services"
	"repro/internal/sim"
)

// ModelBased is the other state-of-the-art family the paper positions
// DejaVu against: analytical performance models (queueing-based, as in
// Urgaonkar et al. / Watson et al.). Once calibrated, the model
// evaluates any candidate allocation instantly — but "it also
// typically requires time-consuming (and often manual) re-calibration
// and re-validation whenever workloads change appreciably".
//
// The controller fits an open-system latency model
//
//	L = base / (1 - rho),   rho = clients * demand / capacity
//
// from production observations (base latency and per-client demand are
// the calibrated parameters), plans capacity analytically against the
// latency SLO, and detects model drift by comparing predictions with
// measurements. A drift — e.g. a request-mix change that alters the
// per-client demand — forces a re-calibration pause during which the
// allocation is frozen.
type ModelBased struct {
	// Type is the instance type to scale; Min and Max bound the
	// count.
	Type     cloud.InstanceType
	Min, Max int
	// SLO is the latency objective the model plans against.
	SLO services.SLO
	// TargetMargin plans for TargetMargin*SLO latency (default 0.9).
	TargetMargin float64
	// CalibrationTime is the cost of (re)building and validating the
	// model (default 10 minutes; the paper: "time-consuming ...
	// re-calibration and re-validation").
	CalibrationTime time.Duration
	// DriftTolerance is the relative prediction error that triggers
	// re-calibration (default 0.25).
	DriftTolerance float64

	calibrated     bool
	baseLatencyMs  float64
	demandPerUnit  float64 // capacity units consumed per client
	busyUntil      time.Duration
	recalibrations int
}

// NewModelBased validates and returns the controller.
func NewModelBased(typ cloud.InstanceType, min, max int, slo services.SLO) (*ModelBased, error) {
	if min <= 0 || max < min {
		return nil, fmt.Errorf("baseline: bad model-based range [%d, %d]", min, max)
	}
	if slo.MaxLatencyMs <= 0 {
		return nil, errors.New("baseline: model-based controller needs a latency SLO")
	}
	return &ModelBased{
		Type:            typ,
		Min:             min,
		Max:             max,
		SLO:             slo,
		TargetMargin:    0.9,
		CalibrationTime: 10 * time.Minute,
		DriftTolerance:  0.25,
		busyUntil:       -1,
	}, nil
}

// Name implements sim.Controller.
func (m *ModelBased) Name() string { return "modelbased" }

// Step implements sim.Controller.
func (m *ModelBased) Step(obs *sim.Observation) (sim.Action, error) {
	if obs.Now < m.busyUntil {
		return sim.Action{}, nil // model being (re)built and validated
	}
	rho := obs.Perf.Utilization
	lat := obs.Perf.LatencyMs
	clients := obs.Workload.Clients
	capacity := obs.Allocation.Capacity()

	usable := rho > 0.02 && rho < 0.95 && clients > 0 && capacity > 0 && lat > 0

	if !m.calibrated {
		if !usable {
			return sim.Action{}, nil // wait for an informative observation
		}
		m.calibrate(obs.Now, lat, rho, clients, capacity)
		return sim.Action{}, nil
	}

	// Drift check: a mix change alters the per-client demand, so the
	// model's latency prediction diverges from measurements.
	if usable {
		predictedRho := clients * m.demandPerUnit / capacity
		predictedLat := m.predictLatency(predictedRho)
		if relErr(predictedLat, lat) > m.DriftTolerance {
			m.recalibrations++
			m.calibrate(obs.Now, lat, rho, clients, capacity)
			return sim.Action{}, nil
		}
	}

	// Analytical capacity planning: instant once calibrated.
	targetLat := m.SLO.MaxLatencyMs * m.TargetMargin
	if targetLat <= m.baseLatencyMs {
		targetLat = m.baseLatencyMs * 1.1
	}
	targetRho := 1 - m.baseLatencyMs/targetLat
	needed := clients * m.demandPerUnit / targetRho
	count := int(math.Ceil(needed / m.Type.Capacity))
	if count < m.Min {
		count = m.Min
	}
	if count > m.Max {
		count = m.Max
	}
	target := cloud.Allocation{Type: m.Type, Count: count}
	if target.Equal(obs.TargetAllocation) {
		return sim.Action{}, nil
	}
	return sim.Action{Target: &target}, nil
}

// calibrate fits the model parameters from one production observation
// and pays the validation pause.
func (m *ModelBased) calibrate(now time.Duration, lat, rho, clients, capacity float64) {
	m.baseLatencyMs = lat * (1 - rho)
	m.demandPerUnit = rho * capacity / clients
	m.calibrated = true
	m.busyUntil = now + m.CalibrationTime
}

func (m *ModelBased) predictLatency(rho float64) float64 {
	if rho >= 0.98 {
		rho = 0.98
	}
	if rho < 0 {
		rho = 0
	}
	return m.baseLatencyMs / (1 - rho)
}

// Recalibrations reports how many drift-triggered model rebuilds
// happened (excluding the initial calibration).
func (m *ModelBased) Recalibrations() int { return m.recalibrations }

func relErr(predicted, measured float64) float64 {
	if measured == 0 {
		return 0
	}
	return math.Abs(predicted-measured) / measured
}

var _ sim.Controller = (*ModelBased)(nil)
