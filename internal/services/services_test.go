package services

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
)

func allServices() []Service {
	return []Service{NewCassandra(), NewSPECWeb(), NewRUBiS()}
}

func TestSLOMet(t *testing.T) {
	lat := SLO{MaxLatencyMs: 60}
	if !lat.Met(Perf{LatencyMs: 59, QoSPercent: 100}) {
		t.Error("59ms should meet 60ms SLO")
	}
	if lat.Met(Perf{LatencyMs: 61, QoSPercent: 100}) {
		t.Error("61ms should violate 60ms SLO")
	}
	qos := SLO{MinQoSPercent: 95}
	if !qos.Met(Perf{QoSPercent: 95.5}) {
		t.Error("95.5% should meet 95% floor")
	}
	if qos.Met(Perf{QoSPercent: 90}) {
		t.Error("90% should violate 95% floor")
	}
	empty := SLO{}
	if !empty.Met(Perf{LatencyMs: 1e9, QoSPercent: 0}) {
		t.Error("empty SLO is always met")
	}
}

func TestLatencyMonotoneInLoad(t *testing.T) {
	for _, s := range allServices() {
		mix := s.DefaultMix()
		cap := s.MaxAllocation().Capacity()
		prev := -1.0
		for clients := 10.0; clients <= cap*s.ClientsPerUnit()*1.5; clients += 20 {
			p := s.Perf(Workload{Clients: clients, Mix: mix}, cap)
			if p.LatencyMs < prev-1e-9 {
				t.Errorf("%s: latency decreased with load at %v clients", s.Name(), clients)
			}
			prev = p.LatencyMs
		}
	}
}

func TestLatencyMonotoneInCapacity(t *testing.T) {
	for _, s := range allServices() {
		mix := s.DefaultMix()
		clients := 0.5 * s.MaxAllocation().Capacity() * s.ClientsPerUnit()
		prevLat := math.Inf(1)
		for c := 1.0; c <= s.MaxAllocation().Capacity(); c++ {
			p := s.Perf(Workload{Clients: clients, Mix: mix}, c)
			if p.LatencyMs > prevLat+1e-9 {
				t.Errorf("%s: latency increased with capacity at %v units", s.Name(), c)
			}
			prevLat = p.LatencyMs
		}
	}
}

func TestSaturationClipped(t *testing.T) {
	for _, s := range allServices() {
		mix := s.DefaultMix()
		p := s.Perf(Workload{Clients: 1e9, Mix: mix}, 1)
		if math.IsInf(p.LatencyMs, 0) || math.IsNaN(p.LatencyMs) {
			t.Errorf("%s: saturated latency not finite: %v", s.Name(), p.LatencyMs)
		}
		zero := s.Perf(Workload{Clients: 100, Mix: mix}, 0)
		if zero.Utilization <= 1 {
			t.Errorf("%s: zero capacity should be saturated", s.Name())
		}
	}
}

func TestCassandraSLOBoundary(t *testing.T) {
	c := NewCassandra()
	mix := c.DefaultMix()
	// At utilization 0.75 latency is exactly 60 ms (the SLO): 10
	// instances serve 0.75*10*67 = 502.5 clients at the SLO edge.
	w := Workload{Clients: 0.75 * 10 * c.PerUnitClients, Mix: mix}
	p := c.Perf(w, 10)
	if math.Abs(p.LatencyMs-60) > 1e-6 {
		t.Errorf("latency at rho=0.75 is %v want 60", p.LatencyMs)
	}
	if !c.SLO().Met(p) {
		t.Error("SLO boundary should be met (<=)")
	}
	over := c.Perf(Workload{Clients: w.Clients * 1.05, Mix: mix}, 10)
	if c.SLO().Met(over) {
		t.Error("5% over the boundary should violate the SLO")
	}
}

func TestSPECWebQoS(t *testing.T) {
	s := NewSPECWeb()
	mix := s.DefaultMix()
	cap := 5.0 // 5 large
	low := s.Perf(Workload{Clients: 0.4 * cap * s.PerUnitClients, Mix: mix}, cap)
	if low.QoSPercent < 99.9 {
		t.Errorf("QoS at low load=%v want ~100", low.QoSPercent)
	}
	high := s.Perf(Workload{Clients: 1.1 * cap * s.PerUnitClients, Mix: mix}, cap)
	if high.QoSPercent > 95 {
		t.Errorf("QoS at overload=%v want < 95", high.QoSPercent)
	}
	// QoS monotone non-increasing in load.
	prev := 101.0
	for clients := 10.0; clients < 1.5*cap*s.PerUnitClients; clients += 10 {
		p := s.Perf(Workload{Clients: clients, Mix: mix}, cap)
		if p.QoSPercent > prev+1e-9 {
			t.Errorf("QoS increased with load at %v clients", clients)
		}
		prev = p.QoSPercent
	}
}

func TestSPECWebScaleUpHelps(t *testing.T) {
	s := NewSPECWeb()
	mix := s.DefaultMix()
	clients := 0.9 * 5 * s.PerUnitClients // violates on 5 large
	onLarge := s.Perf(Workload{Clients: clients, Mix: mix}, 5)
	onXL := s.Perf(Workload{Clients: clients, Mix: mix}, 10)
	if s.SLO().Met(onLarge) {
		t.Error("expected SLO violation on all-large at 90% utilization")
	}
	if !s.SLO().Met(onXL) {
		t.Error("expected SLO met on all-xlarge")
	}
}

func TestRequiredCapacity(t *testing.T) {
	for _, s := range allServices() {
		mix := s.DefaultMix()
		clients := 0.5 * s.MaxAllocation().Capacity() * s.ClientsPerUnit()
		w := Workload{Clients: clients, Mix: mix}
		req := RequiredCapacity(s, w)
		if !s.SLO().Met(s.Perf(w, req)) {
			t.Errorf("%s: SLO not met at required capacity %v", s.Name(), req)
		}
		if req > 0.05 && s.SLO().Met(s.Perf(w, req*0.95)) {
			t.Errorf("%s: required capacity %v not minimal", s.Name(), req)
		}
	}
}

func TestRequiredCapacityUnmeetable(t *testing.T) {
	c := NewCassandra()
	w := Workload{Clients: 1e9, Mix: c.DefaultMix()}
	req := RequiredCapacity(c, w)
	if req != c.MaxAllocation().Capacity() {
		t.Errorf("unmeetable workload should return max capacity, got %v", req)
	}
}

func TestMetricRatesCoverCatalog(t *testing.T) {
	for _, s := range allServices() {
		rates := catalogRates(s, Workload{Clients: 100, Mix: s.DefaultMix()}, 2)
		for _, ev := range metrics.AllEvents() {
			v, ok := rates[ev]
			if !ok {
				t.Errorf("%s: missing event %q", s.Name(), ev)
			}
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: event %q rate %v invalid", s.Name(), ev, v)
			}
		}
	}
}

func TestMetricRatesScaleWithVolume(t *testing.T) {
	// Informative events must separate volumes (Fig. 4); per-instance
	// rates at 2x the volume must be clearly larger.
	for _, s := range allServices() {
		mix := s.DefaultMix()
		lo := catalogRates(s, Workload{Clients: 100, Mix: mix}, 2)
		hi := catalogRates(s, Workload{Clients: 200, Mix: mix}, 2)
		grew := 0
		for _, ev := range metrics.AllEvents() {
			if hi[ev] > lo[ev]*1.5 {
				grew++
			}
		}
		if grew < 5 {
			t.Errorf("%s: only %d events respond to volume, want >= 5", s.Name(), grew)
		}
	}
}

func TestMetricRatesSeparateMixes(t *testing.T) {
	// Workload *type* changes must move some counters (the paper:
	// signatures identify workloads differing in read/write ratio).
	c := NewCassandra()
	a := catalogRates(c, Workload{Clients: 200, Mix: c.DefaultMix()}, 2)
	b := catalogRates(c, Workload{Clients: 200, Mix: c.ReadMostlyMix()}, 2)
	if !(b[metrics.EvLoadBlock] > a[metrics.EvLoadBlock]) {
		t.Error("read-mostly mix should raise load_block")
	}
	if !(b[metrics.EvL2St] < a[metrics.EvL2St]) {
		t.Error("read-mostly mix should lower l2_st")
	}
}

func TestMetricRatesPerInstanceNormalization(t *testing.T) {
	// Doubling the fleet halves per-instance volume-driven rates.
	c := NewCassandra()
	mix := c.DefaultMix()
	one := catalogRates(c, Workload{Clients: 400, Mix: mix}, 2)
	two := catalogRates(c, Workload{Clients: 400, Mix: mix}, 4)
	if !(two[metrics.EvFlopsRate] < one[metrics.EvFlopsRate]) {
		t.Error("per-instance flops should drop when instances double")
	}
	if math.Abs(two[metrics.EvFlopsRate]*2-one[metrics.EvFlopsRate]) > 1e-6 {
		t.Errorf("flops should halve exactly: %v vs %v",
			two[metrics.EvFlopsRate], one[metrics.EvFlopsRate])
	}
}

func TestMetricRatesZeroInstancesGuard(t *testing.T) {
	c := NewCassandra()
	rates := catalogRates(c, Workload{Clients: 100, Mix: c.DefaultMix()}, 0)
	if rates[metrics.EvFlopsRate] <= 0 {
		t.Error("zero instances should be treated as one")
	}
}

func TestFillerEventsWorkloadIndependent(t *testing.T) {
	c := NewCassandra()
	a := catalogRates(c, Workload{Clients: 50, Mix: c.DefaultMix()}, 2)
	b := catalogRates(c, Workload{Clients: 500, Mix: c.ReadMostlyMix()}, 2)
	filler := metrics.Event("uops_retired")
	if a[filler] != b[filler] {
		t.Error("filler events must not respond to workload")
	}
}

func TestProfileSource(t *testing.T) {
	c := NewCassandra()
	flops := []int{metrics.IdxFlopsRate}
	got := []float64{0}
	src := ProfileSource{Service: c, Workload: Workload{Clients: 100, Mix: c.DefaultMix()}, Instances: 2}
	src.RatesAt(flops, got)
	if got[0] <= 0 {
		t.Error("ProfileSource should expose service rates")
	}
	zero := ProfileSource{Service: c, Workload: Workload{Clients: 100, Mix: c.DefaultMix()}}
	zero.RatesAt(flops, got)
	if got[0] <= 0 {
		t.Error("ProfileSource with 0 instances should default to 1")
	}
}

func TestUtilizationProperty(t *testing.T) {
	f := func(clients, capacity float64) bool {
		if clients < 0 || clients > 1e6 || capacity < 0 || capacity > 1e4 {
			return true
		}
		rho := utilization(Workload{Clients: clients}, capacity, 67)
		return rho >= 0 && !math.IsNaN(rho)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMM1Latency(t *testing.T) {
	if got := mm1Latency(10, 0); got != 10 {
		t.Errorf("mm1(rho=0)=%v want 10", got)
	}
	if got := mm1Latency(10, 0.5); got != 20 {
		t.Errorf("mm1(rho=0.5)=%v want 20", got)
	}
	if got := mm1Latency(10, 5); got != mm1Latency(10, 1) {
		t.Error("saturated latency should be clipped to the same ceiling")
	}
	if got := mm1Latency(10, -1); got != 10 {
		t.Errorf("negative rho clamped: %v want 10", got)
	}
}

func TestServiceIdentity(t *testing.T) {
	names := map[string]bool{}
	for _, s := range allServices() {
		if s.Name() == "" {
			t.Error("empty service name")
		}
		if names[s.Name()] {
			t.Errorf("duplicate service name %q", s.Name())
		}
		names[s.Name()] = true
		if s.MaxAllocation().Capacity() <= 0 {
			t.Errorf("%s: bad max allocation", s.Name())
		}
		if s.ClientsPerUnit() <= 0 {
			t.Errorf("%s: bad clients per unit", s.Name())
		}
	}
}

func TestStabilization(t *testing.T) {
	if NewCassandra().StabilizationPeriod() <= 0 {
		t.Error("cassandra must have a re-partitioning period")
	}
	if NewSPECWeb().StabilizationPeriod() != 0 {
		t.Error("specweb should be stateless")
	}
	if NewRUBiS().StabilizationPeriod() != 0 {
		t.Error("rubis should be stateless")
	}
}

func TestWorkloadString(t *testing.T) {
	w := Workload{Clients: 150, Mix: Mix{Name: "bidding"}}
	if w.String() != "bidding@150" {
		t.Errorf("String=%q", w.String())
	}
}
