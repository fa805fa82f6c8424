// Package services simulates the three Internet services the paper
// evaluates DejaVu with: Cassandra under the Yahoo! Cloud Serving
// Benchmark (scale-out case study), SPECweb2009 (scale-up case study),
// and RUBiS (the motivating experiment and the proxy-overhead
// measurement). Each simulator is a queueing-theoretic stand-in for the
// real deployment: it maps (offered load, effective capacity) to
// latency/QoS — including the saturation knee the Tuner searches for —
// and emits per-instance low-level metric rates as functions of the
// workload type and volume, which is what makes signature-based
// workload recognition possible (paper Fig. 4).
package services

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/cloud"
	"repro/internal/metrics"
)

// Mix describes a request mix (workload type): the read/write split and
// the per-request demand placed on processor subsystems. The paper
// distinguishes workloads "either in their type (i.e., read/write
// ratio) or intensity".
type Mix struct {
	// Name identifies the mix ("update-heavy", "support", ...).
	Name string
	// ReadFraction is the fraction of read requests in [0, 1].
	ReadFraction float64
	// CPUWeight, FPWeight, MemWeight, IOWeight scale how much each
	// request exercises the respective subsystem (arbitrary units
	// around 1). They shape the emitted metrics, not capacity.
	CPUWeight, FPWeight, MemWeight, IOWeight float64
	// DemandFactor scales the per-request *capacity* demand relative
	// to the service's default mix (zero means 1.0). This is what
	// makes workload type matter for provisioning, not just volume:
	// "the workload type ... is equally important as the workload
	// volume itself".
	DemandFactor float64
}

// Demand returns the effective demand factor (1.0 when unset).
func (m Mix) Demand() float64 {
	if m.DemandFactor <= 0 {
		return 1.0
	}
	return m.DemandFactor
}

// Workload is an offered load: a request mix at an intensity.
type Workload struct {
	// Clients is the number of emulated clients (the paper's client
	// emulators), proportional to the request rate.
	Clients float64
	// Mix is the request mix.
	Mix Mix
}

// Perf is the performance a service delivers under a workload and
// capacity.
type Perf struct {
	// LatencyMs is the mean response latency in milliseconds.
	LatencyMs float64
	// QoSPercent is the fraction of requests meeting the per-request
	// quality bar (SPECweb's "% of downloads at >= 0.99 Mbps"),
	// in [0, 100]. Services without a QoS notion report 100.
	QoSPercent float64
	// Utilization is the offered load over effective service
	// capacity (rho); > 1 means saturation.
	Utilization float64
}

// SLO is a service-level objective. Either bound may be zero, meaning
// unused.
type SLO struct {
	// MaxLatencyMs is the latency bound (60 ms for Cassandra).
	MaxLatencyMs float64
	// MinQoSPercent is the QoS floor (95% for SPECweb2009).
	MinQoSPercent float64
}

// Met reports whether the performance satisfies the SLO.
func (s SLO) Met(p Perf) bool {
	if s.MaxLatencyMs > 0 && p.LatencyMs > s.MaxLatencyMs {
		return false
	}
	if s.MinQoSPercent > 0 && p.QoSPercent < s.MinQoSPercent {
		return false
	}
	return true
}

// Service is a simulated Internet service.
type Service interface {
	// Name identifies the service.
	Name() string
	// SLO returns the service-level objective used in the paper's
	// experiments.
	SLO() SLO
	// DefaultMix returns the request mix the evaluation uses.
	DefaultMix() Mix
	// Perf returns steady-state performance for a workload served by
	// the given effective capacity (in large-instance units).
	Perf(w Workload, capacity float64) Perf
	// MetricRatesAt writes the true per-second rate of the event at
	// dense index idx[k] (metrics.Index; below 0 reads 0) into dst[k],
	// as observed on ONE instance when the workload is spread over the
	// given number of instances (≤ 0 reads as one). The profiler reads
	// the whole catalog while learning and the signature's few events
	// at runtime; neither changes the other's rates.
	MetricRatesAt(w Workload, instances int, idx []int, dst []float64)
	// MaxAllocation is the full-capacity configuration — DejaVu's
	// fallback for unclassifiable workloads and the paper's
	// fixed overprovisioning baseline.
	MaxAllocation() cloud.Allocation
	// ClientsPerUnit returns how many clients one large-instance
	// unit of capacity can serve at utilization 1.0.
	ClientsPerUnit() float64
	// StabilizationPeriod is how long the service takes to settle
	// after an allocation change (Cassandra's re-partitioning);
	// zero for stateless services.
	StabilizationPeriod() time.Duration
}

// utilization returns offered load over capacity, with a guard for
// zero capacity. The mix's demand factor scales per-client load.
func utilization(w Workload, capacity, clientsPerUnit float64) float64 {
	if capacity <= 0 || clientsPerUnit <= 0 {
		return 2 // fully saturated
	}
	return w.Clients * w.Mix.Demand() / (capacity * clientsPerUnit)
}

// maxRho caps the open-system latency formula: beyond this utilization
// the service is considered saturated and latency is clipped.
const maxRho = 0.98

// mm1Latency is the M/M/1-style latency curve base/(1-rho): flat at low
// load with a sharp knee near saturation — the shape real services
// exhibit and the Tuner's linear search probes.
func mm1Latency(baseMs, rho float64) float64 {
	if rho >= maxRho {
		return baseMs / (1 - maxRho)
	}
	if rho < 0 {
		rho = 0
	}
	return baseMs / (1 - rho)
}

// RequiredCapacity returns the minimal capacity (in large-instance
// units) for the service to meet its SLO under workload w, by scanning
// utilization analytically. It is the oracle the tuner's experimental
// search should converge to.
func RequiredCapacity(s Service, w Workload) float64 {
	// Binary search capacity in (0, maxCap].
	maxCap := s.MaxAllocation().Capacity()
	lo, hi := 0.0, maxCap
	if !s.SLO().Met(s.Perf(w, hi)) {
		return hi // even full capacity misses; return it
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if s.SLO().Met(s.Perf(w, mid)) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// ProfileSource adapts a (service, workload, instance count) triple to
// the metrics.Source interface, representing the cloned instance in the
// DejaVu profiling environment serving its share of duplicated
// requests.
type ProfileSource struct {
	Service   Service
	Workload  Workload
	Instances int
}

// RatesAt implements metrics.Source.
func (p *ProfileSource) RatesAt(idx []int, dst []float64) {
	p.Service.MetricRatesAt(p.Workload, p.Instances, idx, dst)
}

var _ metrics.Source = (*ProfileSource)(nil)

// fillerRate gives synthetic filler events a fixed, workload-independent
// background rate derived from the event name, so they are stable but
// carry no class information (feature selection must learn to discard
// them).
func fillerRate(ev metrics.Event) float64 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(ev))
	return 100 + float64(h.Sum32()%9000)
}

// baseVector is the background-rate table, indexed by dense event
// index. It is workload-independent, so it is built exactly once at
// package init — per-call fnv hashing of 60+ event names was a
// measurable slice of the profiling hot path.
var baseVector []float64

func init() {
	evs := metrics.AllEvents()
	baseVector = make([]float64, len(evs))
	for _, ev := range evs {
		baseVector[metrics.Index(ev)] = fillerRate(ev)
	}
}

// background is an event's rate when the workload does not drive it:
// every service returns it for its uninformative events.
func background(i int) float64 {
	if i < 0 {
		return 0
	}
	return baseVector[i]
}

// perInstance is w's volume on one of instances (≤ 0 reads as one):
// the v every rate formula reads.
func perInstance(w Workload, instances int) float64 {
	return w.Clients / float64(max(instances, 1))
}

// String renders a workload compactly for logs.
func (w Workload) String() string {
	return fmt.Sprintf("%s@%.0f", w.Mix.Name, w.Clients)
}
