package queueing

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	if err := (&Network{}).Validate(); err == nil {
		t.Error("no stations should fail")
	}
	if err := (&Network{Demands: []float64{-1}}).Validate(); err == nil {
		t.Error("negative demand should fail")
	}
	if err := (&Network{Demands: []float64{1}, ThinkTime: -1}).Validate(); err == nil {
		t.Error("negative think time should fail")
	}
	if err := (&Network{Demands: []float64{0.1, 0.2}, ThinkTime: 1}).Validate(); err != nil {
		t.Errorf("valid network: %v", err)
	}
}

func TestSolveSingleClient(t *testing.T) {
	// With one client there is no queueing: R = sum of demands.
	nw := &Network{Demands: []float64{0.1, 0.2, 0.05}, ThinkTime: 1}
	r, err := nw.Solve(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.ResponseTime-0.35) > 1e-12 {
		t.Errorf("R(1)=%v want 0.35", r.ResponseTime)
	}
	wantX := 1 / (1 + 0.35)
	if math.Abs(r.Throughput-wantX) > 1e-12 {
		t.Errorf("X(1)=%v want %v", r.Throughput, wantX)
	}
}

func TestSolveZeroPopulation(t *testing.T) {
	nw := &Network{Demands: []float64{0.1}, ThinkTime: 1}
	r, err := nw.Solve(0)
	if err != nil {
		t.Fatal(err)
	}
	if r.ResponseTime != 0 || r.Throughput != 0 {
		t.Errorf("empty system should be idle: %+v", r)
	}
}

func TestSolveErrors(t *testing.T) {
	nw := &Network{Demands: []float64{0.1}}
	if _, err := nw.Solve(-1); err == nil {
		t.Error("negative population should error")
	}
	bad := &Network{}
	if _, err := bad.Solve(1); err == nil {
		t.Error("invalid network should error")
	}
}

func TestThroughputBounds(t *testing.T) {
	// X(n) <= min(n/(Z+sumD), 1/Dmax) — the classic asymptotic
	// bounds; exact MVA must respect both.
	nw := &Network{Demands: []float64{0.05, 0.12, 0.03}, ThinkTime: 2}
	sumD := 0.2
	dmax := 0.12
	for n := 1; n <= 200; n *= 2 {
		r, err := nw.Solve(n)
		if err != nil {
			t.Fatal(err)
		}
		if r.Throughput > 1/dmax+1e-9 {
			t.Errorf("n=%d: X=%v exceeds 1/Dmax=%v", n, r.Throughput, 1/dmax)
		}
		if r.Throughput > float64(n)/(2+sumD)+1e-9 {
			t.Errorf("n=%d: X=%v exceeds n/(Z+sumD)", n, r.Throughput)
		}
	}
}

func TestResponseTimeMonotonicInPopulation(t *testing.T) {
	nw := &Network{Demands: []float64{0.08, 0.02}, ThinkTime: 0.5}
	results := solveEach(t, nw, 100)
	for i := 1; i < len(results); i++ {
		if results[i].ResponseTime < results[i-1].ResponseTime-1e-12 {
			t.Fatalf("R decreased at n=%d", i+1)
		}
		if results[i].Throughput < results[i-1].Throughput-1e-9 {
			t.Fatalf("X decreased at n=%d (single-bottleneck closed nets are monotone)", i+1)
		}
	}
}

func TestHighPopulationAsymptote(t *testing.T) {
	// For large n: R(n) ~= n*Dmax - Z.
	nw := &Network{Demands: []float64{0.1, 0.02}, ThinkTime: 1}
	n := 500
	r, err := nw.Solve(n)
	if err != nil {
		t.Fatal(err)
	}
	asymptote := float64(n)*0.1 - 1
	if math.Abs(r.ResponseTime-asymptote)/asymptote > 0.05 {
		t.Errorf("R(%d)=%v want ~%v", n, r.ResponseTime, asymptote)
	}
	// Bottleneck utilization approaches 1.
	if r.Utilizations[0] < 0.99 {
		t.Errorf("bottleneck utilization=%v want ~1", r.Utilizations[0])
	}
}

func TestLittlesLawProperty(t *testing.T) {
	// Queue lengths must satisfy Little's law per station:
	// Q_i = X * R_i, and sum Q_i + X*Z = n.
	f := func(seed uint32) bool {
		d1 := 0.01 + float64(seed%7)*0.02
		d2 := 0.01 + float64(seed%5)*0.03
		z := float64(seed%4) * 0.5
		n := 1 + int(seed%50)
		nw := &Network{Demands: []float64{d1, d2}, ThinkTime: z}
		r, err := nw.Solve(n)
		if err != nil {
			return false
		}
		total := r.Throughput * z
		for _, q := range r.QueueLengths {
			total += q
		}
		return math.Abs(total-float64(n)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// solveEach returns Solve's results for populations 1..n.
func solveEach(t *testing.T, nw *Network, n int) []*Result {
	t.Helper()
	out := make([]*Result, n)
	for pop := 1; pop <= n; pop++ {
		r, err := nw.Solve(pop)
		if err != nil {
			t.Fatal(err)
		}
		out[pop-1] = r
	}
	return out
}

// TestSolveSeriesMatchesSolve checks Solve against solveSeries, the
// recurrence stepped once through every population.
func TestSolveSeriesMatchesSolve(t *testing.T) {
	nw := &Network{Demands: []float64{0.03, 0.07}, ThinkTime: 0.2}
	series, err := nw.solveSeries(20)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []int{1, 7, 20} {
		direct, err := nw.Solve(want)
		if err != nil {
			t.Fatal(err)
		}
		got := series[want-1]
		if math.Abs(got.ResponseTime-direct.ResponseTime) > 1e-12 ||
			math.Abs(got.Throughput-direct.Throughput) > 1e-12 {
			t.Errorf("n=%d: series (%v,%v) vs direct (%v,%v)", want,
				got.ResponseTime, got.Throughput, direct.ResponseTime, direct.Throughput)
		}
	}
	if _, err := nw.solveSeries(0); err == nil {
		t.Error("zero series should error")
	}
}

func TestBottleneckHelpers(t *testing.T) {
	nw := &Network{Demands: []float64{0.05, 0.2, 0.1}, ThinkTime: 1}
	if nw.bottleneckDemand() != 0.2 {
		t.Errorf("Dmax=%v want 0.2", nw.bottleneckDemand())
	}
}

func TestRequiredCapacityFactor(t *testing.T) {
	nw := &Network{Demands: []float64{0.1}, ThinkTime: 1}
	// 50 clients, target R <= 0.2 s.
	c, err := nw.requiredCapacityFactor(50, 0.2, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Verify the factor achieves the target...
	scaled := &Network{Demands: []float64{0.1 / c}, ThinkTime: 1}
	r, err := scaled.Solve(50)
	if err != nil {
		t.Fatal(err)
	}
	if r.ResponseTime > 0.2+1e-9 {
		t.Errorf("factor %v gives R=%v > 0.2", c, r.ResponseTime)
	}
	// ...and is minimal (5% less capacity misses it).
	under := &Network{Demands: []float64{0.1 / (c * 0.95)}, ThinkTime: 1}
	ru, err := under.Solve(50)
	if err != nil {
		t.Fatal(err)
	}
	if ru.ResponseTime <= 0.2 {
		t.Errorf("factor %v not minimal", c)
	}
	// Unreachable target returns hi.
	c2, err := nw.requiredCapacityFactor(1000, 1e-9, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != 2 {
		t.Errorf("unreachable target should return hi, got %v", c2)
	}
	if _, err := nw.requiredCapacityFactor(10, -1, 0.1, 2); err == nil {
		t.Error("bad parameters should error")
	}
}

// solveSeries returns results for populations 1..n, useful for
// capacity planning sweeps.
func (nw *Network) solveSeries(n int) ([]*Result, error) {
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, errors.New("queueing: population must be positive")
	}
	out := make([]*Result, 0, n)
	// Re-run incrementally to reuse the recurrence.
	k := len(nw.Demands)
	queues := make([]float64, k)
	stationR := make([]float64, k)
	for pop := 1; pop <= n; pop++ {
		response, throughput := mvaStep(nw.Demands, queues, stationR, pop, nw.ThinkTime)
		r := &Result{
			Clients:      pop,
			ResponseTime: response,
			Throughput:   throughput,
			QueueLengths: make([]float64, k),
			Utilizations: make([]float64, k),
		}
		copy(r.QueueLengths, queues)
		for i := 0; i < k; i++ {
			r.Utilizations[i] = throughput * nw.Demands[i]
		}
		out = append(out, r)
	}
	return out, nil
}

// requiredCapacityFactor returns the smallest factor c (capacity
// multiplier applied to every station, i.e. demands become D_i/c) such
// that the network serves n clients with response time at most
// maxResponse. It binary-searches c in [lo, hi]; returns hi when even
// hi misses the target.
func (nw *Network) requiredCapacityFactor(n int, maxResponse, lo, hi float64) (float64, error) {
	if err := nw.Validate(); err != nil {
		return 0, err
	}
	if maxResponse <= 0 || lo <= 0 || hi < lo {
		return 0, errors.New("queueing: bad search parameters")
	}
	// One scaled network reused across every probe: the binary search
	// evaluates ~50 candidate factors and each used to allocate a fresh
	// Network plus demands slice.
	scaled := &Network{Demands: make([]float64, len(nw.Demands)), ThinkTime: nw.ThinkTime}
	meets := func(c float64) bool {
		for i, d := range nw.Demands {
			scaled.Demands[i] = d / c
		}
		r, err := scaled.Solve(n)
		if err != nil {
			return false
		}
		return r.ResponseTime <= maxResponse
	}
	if !meets(hi) {
		return hi, nil
	}
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if meets(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// bottleneckDemand returns the largest station demand D_max, which
// bounds the achievable throughput by 1/D_max.
func (nw *Network) bottleneckDemand() float64 {
	max := 0.0
	for _, d := range nw.Demands {
		if d > max {
			max = d
		}
	}
	return max
}
