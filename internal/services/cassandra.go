package services

import (
	"time"

	"repro/internal/cloud"
	"repro/internal/metrics"
)

// Cassandra simulates the paper's distributed key-value store under
// YCSB load (scale-out case study, §4.1): CPU- and memory-intensive,
// update-heavy (95% writes / 5% reads), SLO latency 60 ms, scaled
// horizontally from 2 to 10 large instances. Scaling triggers
// re-partitioning: "Cassandra takes a long time to stabilize (e.g.,
// tens of minutes) after DejaVu adjusts the number of running
// instances".
type Cassandra struct {
	// BaseLatencyMs is the unloaded response latency.
	BaseLatencyMs float64
	// PerUnitClients is the client capacity of one large instance at
	// utilization 1.
	PerUnitClients float64
	// MaxInstances bounds scale-out (paper: 10 large instances).
	MaxInstances int
	// MinInstances bounds scale-in (paper: 2).
	MinInstances int
	// Repartition is the post-scaling stabilization period.
	Repartition time.Duration
}

// NewCassandra returns the configuration used across the evaluation.
// With base latency 15 ms, the 60 ms SLO is met up to utilization 0.75
// (15/(1-0.75) = 60): the tuner must keep rho at or below 0.75.
func NewCassandra() *Cassandra {
	return &Cassandra{
		BaseLatencyMs:  15,
		PerUnitClients: 67,
		MaxInstances:   10,
		MinInstances:   2,
		Repartition:    20 * time.Minute,
	}
}

// Name implements Service.
func (c *Cassandra) Name() string { return "cassandra" }

// SLO implements Service: 60 ms latency bound (paper §4.1).
func (c *Cassandra) SLO() SLO { return SLO{MaxLatencyMs: 60} }

// DefaultMix implements Service: YCSB update-heavy, 95% writes.
func (c *Cassandra) DefaultMix() Mix {
	return Mix{
		Name:         "update-heavy",
		ReadFraction: 0.05,
		CPUWeight:    1.2,
		FPWeight:     0.2,
		MemWeight:    1.4,
		IOWeight:     1.0,
	}
}

// ReadMostlyMix is an alternative YCSB mix used by tests and examples
// to exercise workload-type (not just volume) changes.
func (c *Cassandra) ReadMostlyMix() Mix {
	return Mix{
		Name:         "read-mostly",
		ReadFraction: 0.95,
		DemandFactor: 0.75,
		CPUWeight:    0.8,
		FPWeight:     0.2,
		MemWeight:    1.0,
		IOWeight:     0.7,
	}
}

// Perf implements Service.
func (c *Cassandra) Perf(w Workload, capacity float64) Perf {
	rho := utilization(w, capacity, c.PerUnitClients)
	lat := mm1Latency(c.BaseLatencyMs, rho)
	return Perf{LatencyMs: lat, QoSPercent: 100, Utilization: rho}
}

// MetricRatesAt implements Service.
func (c *Cassandra) MetricRatesAt(w Workload, instances int, idx []int, dst []float64) {
	v := perInstance(w, instances)
	for k, i := range idx {
		dst[k] = c.rate(i, v, &w.Mix)
	}
}

// rate is one event's rate at per-instance volume v under mix m. The
// informative events respond to per-instance volume and the
// read/write split; everything else stays at its background rate.
func (c *Cassandra) rate(i int, v float64, m *Mix) float64 {
	write := 1 - m.ReadFraction
	switch i {
	case metrics.IdxFlopsRate:
		return 1e4 * v * m.FPWeight
	case metrics.IdxCPUClkUnhalt:
		return 2e6*v*m.CPUWeight + 1e7
	case metrics.IdxL2St:
		return 5e4 * v * write * m.MemWeight
	case metrics.IdxLoadBlock:
		return 3e4 * v * m.ReadFraction * m.MemWeight
	case metrics.IdxStoreBlock:
		return 4e4 * v * write * m.MemWeight
	case metrics.IdxPageWalks:
		return 2e4 * v * m.MemWeight
	case metrics.IdxL2Ads:
		return 1e4 * v * (0.5 + write)
	case metrics.IdxL2RejectBusq:
		return 10 * v * v * m.MemWeight // contention grows superlinearly
	case metrics.IdxBusqEmpty:
		return clampMin(5e6-3e4*v*m.CPUWeight, 0)
	case metrics.IdxL1DRepl:
		return 2.5e4 * v * m.MemWeight
	case metrics.IdxDTLBMiss:
		return 1.2e3 * v * m.MemWeight
	case metrics.IdxXenCPU:
		return clampMax(100*v/c.PerUnitClients, 100)
	case metrics.IdxXenMem:
		return 2.5e5 + 500*v*m.MemWeight
	case metrics.IdxXenNetTx:
		return 40 * v
	case metrics.IdxXenNetRx:
		return 45 * v
	case metrics.IdxXenVBDRd:
		return 20 * v * m.ReadFraction * m.IOWeight
	case metrics.IdxXenVBDWr:
		return 25 * v * write * m.IOWeight
	}
	return background(i)
}

// MaxAllocation implements Service: 10 large instances.
func (c *Cassandra) MaxAllocation() cloud.Allocation {
	return cloud.Allocation{Type: cloud.Large, Count: c.MaxInstances}
}

// ClientsPerUnit implements Service.
func (c *Cassandra) ClientsPerUnit() float64 { return c.PerUnitClients }

// StabilizationPeriod implements Service.
func (c *Cassandra) StabilizationPeriod() time.Duration { return c.Repartition }

func clampMin(x, lo float64) float64 {
	if x < lo {
		return lo
	}
	return x
}

func clampMax(x, hi float64) float64 {
	if x > hi {
		return hi
	}
	return x
}

var _ Service = (*Cassandra)(nil)
