package services

import (
	"time"

	"repro/internal/cloud"
	"repro/internal/metrics"
)

// RUBiS simulates the eBay-clone three-tier application behind the
// paper's motivating experiment (Fig. 1) and the proxy-overhead
// measurement (§4.4): an Apache front end, a Tomcat application
// server, and a MySQL database, with 26 client interactions whose
// frequencies come from the RUBiS transition tables. For signature
// purposes the interaction mix is summarized by the browse (read) /
// bid+sell (write) split.
type RUBiS struct {
	// PerUnitClients is the client capacity of one large unit at
	// utilization 1.
	PerUnitClients float64
	// BaseLatencyMs is the unloaded end-to-end latency across the
	// three tiers.
	BaseLatencyMs float64
	// MaxInstances bounds scale-out.
	MaxInstances int
}

// NewRUBiS returns the evaluation configuration. With base latency
// 25 ms, the 150 ms SLO of Figure 1 is met up to utilization 5/6.
func NewRUBiS() *RUBiS {
	return &RUBiS{
		PerUnitClients: 100,
		BaseLatencyMs:  25,
		MaxInstances:   10,
	}
}

// Name implements Service.
func (r *RUBiS) Name() string { return "rubis" }

// SLO implements Service: the 150 ms latency line of Figure 1.
func (r *RUBiS) SLO() SLO { return SLO{MaxLatencyMs: 150} }

// DefaultMix implements Service: the standard bidding mix (read-heavy
// browsing with a bidding/selling write component).
func (r *RUBiS) DefaultMix() Mix {
	return Mix{
		Name:         "bidding",
		ReadFraction: 0.85,
		CPUWeight:    1.0,
		FPWeight:     0.4,
		MemWeight:    1.0,
		IOWeight:     0.6,
	}
}

// BrowsingMix is RUBiS's read-only mix.
func (r *RUBiS) BrowsingMix() Mix {
	return Mix{Name: "browsing", ReadFraction: 1.0, CPUWeight: 0.8, FPWeight: 0.3, MemWeight: 0.9, IOWeight: 0.5, DemandFactor: 0.85}
}

// SellingMix is a write-heavy mix (bidding and selling interactions).
func (r *RUBiS) SellingMix() Mix {
	return Mix{Name: "selling", ReadFraction: 0.55, CPUWeight: 1.2, FPWeight: 0.5, MemWeight: 1.2, IOWeight: 0.9, DemandFactor: 1.2}
}

// Perf implements Service.
func (r *RUBiS) Perf(w Workload, capacity float64) Perf {
	rho := utilization(w, capacity, r.PerUnitClients)
	lat := mm1Latency(r.BaseLatencyMs, rho)
	return Perf{LatencyMs: lat, QoSPercent: 100, Utilization: rho}
}

// MetricRatesAt implements Service.
func (r *RUBiS) MetricRatesAt(w Workload, instances int, idx []int, dst []float64) {
	v := perInstance(w, instances)
	for k, i := range idx {
		dst[k] = r.rate(i, v, &w.Mix)
	}
}

// rate is one event's rate at per-instance volume v under mix m. The
// mapping is built so that the eight Table 1 counters carry the
// workload information: CPU (cpu_clk_unhalted), cache (l2_ads,
// l2_reject_busq, l2_st), memory (load_block, store_block,
// page_walks), and the bus queue (busq_empty).
func (r *RUBiS) rate(i int, v float64, m *Mix) float64 {
	write := 1 - m.ReadFraction
	switch i {
	case metrics.IdxCPUClkUnhalt:
		return 1.8e6*v*m.CPUWeight + 9e6
	case metrics.IdxL2Ads:
		return 2e4 * v * m.MemWeight
	case metrics.IdxL2RejectBusq:
		return 12 * v * v * m.MemWeight
	case metrics.IdxL2St:
		return 4e4 * v * write * m.MemWeight
	case metrics.IdxLoadBlock:
		return 2.5e4 * v * m.ReadFraction * m.MemWeight
	case metrics.IdxStoreBlock:
		return 3e4 * v * write * m.MemWeight
	case metrics.IdxPageWalks:
		return 1.5e4 * v * m.MemWeight
	case metrics.IdxBusqEmpty:
		return clampMin(6e6-4e4*v*m.CPUWeight, 0)
	case metrics.IdxFlopsRate:
		return 8e3 * v * m.FPWeight
	case metrics.IdxXenCPU:
		return clampMax(100*v/r.PerUnitClients, 100)
	case metrics.IdxXenMem:
		return 2e5 + 400*v*m.MemWeight
	case metrics.IdxXenNetTx:
		return 60 * v
	case metrics.IdxXenNetRx:
		return 25 * v
	case metrics.IdxXenVBDRd:
		return 30 * v * m.ReadFraction * m.IOWeight
	case metrics.IdxXenVBDWr:
		return 15 * v * write * m.IOWeight
	}
	return background(i)
}

// MaxAllocation implements Service.
func (r *RUBiS) MaxAllocation() cloud.Allocation {
	return cloud.Allocation{Type: cloud.Large, Count: r.MaxInstances}
}

// ClientsPerUnit implements Service.
func (r *RUBiS) ClientsPerUnit() float64 { return r.PerUnitClients }

// StabilizationPeriod implements Service: the web tiers are stateless
// and MySQL replicas are pre-warmed in the evaluation.
func (r *RUBiS) StabilizationPeriod() time.Duration { return 0 }

var _ Service = (*RUBiS)(nil)
