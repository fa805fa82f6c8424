package queueing

import (
	"math"
	"testing"
)

// TestSolveEdgeCases is the table-driven edge-case sweep: degenerate
// stations, single customers, and deep saturation, where MVA's
// asymptotics are known in closed form.
func TestSolveEdgeCases(t *testing.T) {
	tests := []struct {
		name    string
		nw      Network
		n       int
		wantErr bool
		// check runs case-specific assertions when wantErr is false.
		check func(t *testing.T, r *Result)
	}{
		{
			name:    "no stations",
			nw:      Network{ThinkTime: 1},
			n:       1,
			wantErr: true,
		},
		{
			name: "zero-demand station is pass-through",
			nw:   Network{Demands: []float64{0, 0.1}, ThinkTime: 1},
			n:    1,
			check: func(t *testing.T, r *Result) {
				if math.Abs(r.ResponseTime-0.1) > 1e-12 {
					t.Errorf("R = %v, want 0.1 (zero-demand station adds nothing)", r.ResponseTime)
				}
				if r.QueueLengths[0] != 0 || r.Utilizations[0] != 0 {
					t.Errorf("zero-demand station should stay empty: %+v", r)
				}
			},
		},
		{
			name: "all-zero demands serve instantly",
			nw:   Network{Demands: []float64{0, 0}, ThinkTime: 2},
			n:    50,
			check: func(t *testing.T, r *Result) {
				if r.ResponseTime != 0 {
					t.Errorf("R = %v, want 0", r.ResponseTime)
				}
				if want := 50.0 / 2.0; math.Abs(r.Throughput-want) > 1e-12 {
					t.Errorf("X = %v, want %v (pure think-time cycling)", r.Throughput, want)
				}
			},
		},
		{
			name: "single customer sees no queueing",
			nw:   Network{Demands: []float64{0.02, 0.05, 0.03}, ThinkTime: 0.5},
			n:    1,
			check: func(t *testing.T, r *Result) {
				if math.Abs(r.ResponseTime-0.10) > 1e-12 {
					t.Errorf("R(1) = %v, want sum of demands 0.10", r.ResponseTime)
				}
				for i, q := range r.QueueLengths {
					if q > 1 {
						t.Errorf("station %d queue %v > 1 with one customer", i, q)
					}
				}
			},
		},
		{
			name: "single customer zero think time",
			nw:   Network{Demands: []float64{0.25}, ThinkTime: 0},
			n:    1,
			check: func(t *testing.T, r *Result) {
				// One customer pinned at the only station: X = 1/D,
				// U = 1.
				if want := 4.0; math.Abs(r.Throughput-want) > 1e-12 {
					t.Errorf("X = %v, want %v", r.Throughput, want)
				}
				if math.Abs(r.Utilizations[0]-1) > 1e-12 {
					t.Errorf("U = %v, want 1", r.Utilizations[0])
				}
			},
		},
		{
			name: "saturation pins throughput at bottleneck",
			nw:   Network{Demands: []float64{0.010, 0.040, 0.008}, ThinkTime: 1},
			n:    2000,
			check: func(t *testing.T, r *Result) {
				// Deep in saturation X -> 1/D_max and the bottleneck
				// utilization -> 1.
				want := 1 / 0.040
				if math.Abs(r.Throughput-want) > want*1e-3 {
					t.Errorf("X = %v, want ~%v", r.Throughput, want)
				}
				if r.Utilizations[1] < 0.999 || r.Utilizations[1] > 1+1e-9 {
					t.Errorf("bottleneck utilization %v, want ~1", r.Utilizations[1])
				}
				// Almost the whole population queues at the
				// bottleneck: N - X*(Z + sum of other demands).
				if r.QueueLengths[1] < 1900 {
					t.Errorf("bottleneck queue %v, want nearly the full 2000", r.QueueLengths[1])
				}
			},
		},
		{
			name: "saturated response time follows the asymptote",
			nw:   Network{Demands: []float64{0.1}, ThinkTime: 1},
			n:    500,
			check: func(t *testing.T, r *Result) {
				// Asymptotically R ~ N*D - Z.
				want := 500*0.1 - 1
				if math.Abs(r.ResponseTime-want) > want*1e-2 {
					t.Errorf("R = %v, want ~%v", r.ResponseTime, want)
				}
			},
		},
	}
	for _, tc := range tests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r, err := tc.nw.Solve(tc.n)
			if tc.wantErr {
				if err == nil {
					t.Fatal("want error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, r)
		})
	}
}

// TestThroughputMonotonicInPopulation: X(n) never decreases with n in
// a product-form network.
func TestThroughputMonotonicInPopulation(t *testing.T) {
	nw := &Network{Demands: []float64{0.02, 0.015}, ThinkTime: 0.4}
	series := solveEach(t, nw, 200)
	for i := 1; i < len(series); i++ {
		if series[i].Throughput < series[i-1].Throughput-1e-12 {
			t.Fatalf("X(%d)=%v < X(%d)=%v", i+1, series[i].Throughput, i, series[i-1].Throughput)
		}
	}
}

func TestRequiredCapacityFactorEdges(t *testing.T) {
	nw := &Network{Demands: []float64{0.05}, ThinkTime: 1}
	if _, err := nw.requiredCapacityFactor(10, 0, 1, 4); err == nil {
		t.Error("non-positive response target should error")
	}
	if _, err := nw.requiredCapacityFactor(10, 0.1, 4, 1); err == nil {
		t.Error("inverted search range should error")
	}
	// Unreachable target returns hi.
	c, err := nw.requiredCapacityFactor(10000, 1e-9, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c != 8 {
		t.Errorf("unreachable target should return hi=8, got %v", c)
	}
	// Feasible target: the found factor meets it, and slightly less
	// capacity misses it (minimality).
	c, err = nw.requiredCapacityFactor(100, 0.5, 0.1, 64)
	if err != nil {
		t.Fatal(err)
	}
	meets := func(f float64) bool {
		scaled := &Network{Demands: []float64{0.05 / f}, ThinkTime: 1}
		r, err := scaled.Solve(100)
		if err != nil {
			t.Fatal(err)
		}
		return r.ResponseTime <= 0.5
	}
	if !meets(c) {
		t.Errorf("factor %v misses the target it was solved for", c)
	}
	if meets(c * 0.98) {
		t.Errorf("factor %v is not minimal", c)
	}
}
