package services

import (
	"math"
	"time"

	"repro/internal/cloud"
	"repro/internal/metrics"
)

// SPECWeb simulates the SPECweb2009 deployment of the scale-up case
// study (§4.2): 5 front-end plus 5 back-end virtual instances whose
// *type* is switched between large and extra-large as load varies. The
// paper uses the support workload — "mostly I/O-intensive and
// read-only" — with the benchmark's QoS criterion: "at least 95% of
// the downloads meet a minimum 0.99Mbps rate".
type SPECWeb struct {
	// Instances is the fixed instance count per tier (paper: 5).
	Instances int
	// PerUnitClients is the client capacity of one large unit at
	// utilization 1.
	PerUnitClients float64
	// BaseLatencyMs is the unloaded latency (only reported, the SLO
	// here is QoS-based).
	BaseLatencyMs float64
	// QoSKnee is the utilization at which QoS starts degrading.
	QoSKnee float64
}

// NewSPECWeb returns the evaluation configuration. With knee 0.75,
// QoS stays at ~100% until utilization 0.75 and then falls steeply;
// the 95% SLO floor is crossed shortly above the knee, so the tuner
// must keep utilization at or below roughly 0.8.
func NewSPECWeb() *SPECWeb {
	return &SPECWeb{
		Instances:      5,
		PerUnitClients: 50,
		BaseLatencyMs:  25,
		QoSKnee:        0.75,
	}
}

// Name implements Service.
func (s *SPECWeb) Name() string { return "specweb" }

// SLO implements Service: QoS >= 95% (SPECweb2009 support compliance).
func (s *SPECWeb) SLO() SLO { return SLO{MinQoSPercent: 95} }

// DefaultMix implements Service: the support workload.
func (s *SPECWeb) DefaultMix() Mix {
	return Mix{
		Name:         "support",
		ReadFraction: 1.0, // read-only downloads
		CPUWeight:    0.5,
		FPWeight:     0.1,
		MemWeight:    0.6,
		IOWeight:     2.0, // I/O-intensive
	}
}

// BankingMix and EcommerceMix are SPECweb2009's other two workloads,
// used to exercise type changes during profiling experiments (Fig. 4a
// separates workloads by Flops rate).
func (s *SPECWeb) BankingMix() Mix {
	return Mix{Name: "banking", ReadFraction: 0.8, CPUWeight: 1.0, FPWeight: 1.5, MemWeight: 0.8, IOWeight: 0.5, DemandFactor: 1.1}
}

// EcommerceMix returns the e-commerce workload mix.
func (s *SPECWeb) EcommerceMix() Mix {
	return Mix{Name: "ecommerce", ReadFraction: 0.7, CPUWeight: 1.2, FPWeight: 1.0, MemWeight: 1.0, IOWeight: 0.8}
}

// Perf implements Service. QoS is ~100% below the knee and decays
// smoothly above it; latency follows the usual open-system curve.
func (s *SPECWeb) Perf(w Workload, capacity float64) Perf {
	rho := utilization(w, capacity, s.PerUnitClients)
	lat := mm1Latency(s.BaseLatencyMs, rho)
	qos := 100.0
	if rho > s.QoSKnee {
		// Logistic decay: ~99.9% at the knee, ~50% one knee-width
		// above it.
		x := (rho - s.QoSKnee) / (0.35 * s.QoSKnee)
		qos = 100 / (1 + math.Exp(6*(x-1)))
	}
	return Perf{LatencyMs: lat, QoSPercent: qos, Utilization: rho}
}

// MetricRatesAt implements Service.
func (s *SPECWeb) MetricRatesAt(w Workload, instances int, idx []int, dst []float64) {
	v := perInstance(w, instances)
	for k, i := range idx {
		dst[k] = s.rate(i, v, &w.Mix)
	}
}

// rate is one event's rate at per-instance volume v under mix m. The
// support workload is I/O- and network-heavy, so the disk and network
// events dominate its signature; the FP-heavy banking mix lights up
// the flops counter instead (Fig. 4a).
func (s *SPECWeb) rate(i int, v float64, m *Mix) float64 {
	write := 1 - m.ReadFraction
	switch i {
	case metrics.IdxFlopsRate:
		return 2e4 * v * m.FPWeight
	case metrics.IdxCPUClkUnhalt:
		return 1.5e6*v*m.CPUWeight + 8e6
	case metrics.IdxInstRetired:
		return 1e6 * v * m.CPUWeight
	case metrics.IdxBrInstRetired:
		return 2e5 * v * m.CPUWeight
	case metrics.IdxBrMispredict:
		return 4e3 * v * m.CPUWeight
	case metrics.IdxL2Lines:
		return 3e4 * v * m.MemWeight
	case metrics.IdxLoadBlock:
		return 2e4 * v * m.ReadFraction * m.MemWeight
	case metrics.IdxStoreBlock:
		return 2e4 * v * write * m.MemWeight
	case metrics.IdxPageWalks:
		return 1e4 * v * m.MemWeight
	case metrics.IdxXenCPU:
		return clampMax(100*v/s.PerUnitClients, 100)
	case metrics.IdxXenMem:
		return 3e5 + 300*v*m.MemWeight
	case metrics.IdxXenNetTx:
		return 400 * v * m.IOWeight // large downloads
	case metrics.IdxXenNetRx:
		return 30 * v
	case metrics.IdxXenVBDRd:
		return 80 * v * m.ReadFraction * m.IOWeight
	case metrics.IdxXenVBDWr:
		return 8 * v * write * m.IOWeight
	}
	return background(i)
}

// MaxAllocation implements Service: every instance extra-large.
func (s *SPECWeb) MaxAllocation() cloud.Allocation {
	return cloud.Allocation{Type: cloud.XLarge, Count: s.Instances}
}

// ClientsPerUnit implements Service.
func (s *SPECWeb) ClientsPerUnit() float64 { return s.PerUnitClients }

// StabilizationPeriod implements Service: the web tier is stateless.
func (s *SPECWeb) StabilizationPeriod() time.Duration { return 0 }

var _ Service = (*SPECWeb)(nil)
