// Package queueing implements exact Mean Value Analysis (MVA) for
// single-class closed product-form queueing networks — the analytical
// machinery behind the modeling-based resource managers DejaVu is
// positioned against (the paper's intro and related work cite
// closed queueing network models with MVA for multi-tier
// applications, e.g. Urgaonkar et al.).
//
// A closed network has N clients cycling through a think state (mean
// think time Z) and a set of queueing stations (the service tiers),
// each with a per-visit service demand D_i. Exact MVA computes, for
// each population n <= N:
//
//	R_i(n) = D_i * (1 + Q_i(n-1))   response time at station i
//	R(n)   = sum_i R_i(n)
//	X(n)   = n / (Z + R(n))          system throughput
//	Q_i(n) = X(n) * R_i(n)           station queue length
//
// Because the recurrence runs over populations 1..N, re-solving the
// same network at a slightly larger population repeats nearly all the
// work; MemoSolver memoizes the recurrence state per network
// parameterization and extends it incrementally — the package's
// equivalent of the paper's observation that cached decisions make
// adaptation an order of magnitude cheaper than recomputing them.
// Memoized results are bit-equal to direct solves (pinned by
// memo_test.go).
package queueing

import (
	"errors"
	"fmt"
)

// Network is a single-class closed queueing network.
type Network struct {
	// Demands holds the total service demand (seconds) per client
	// visit at each station.
	Demands []float64
	// ThinkTime is the mean client think time Z (seconds).
	ThinkTime float64
}

// Result reports steady-state quantities for one population size.
type Result struct {
	// Clients is the population n.
	Clients int
	// ResponseTime is R(n) in seconds (think time excluded).
	ResponseTime float64
	// Throughput is X(n) in requests per second.
	Throughput float64
	// QueueLengths holds Q_i(n) per station.
	QueueLengths []float64
	// Utilizations holds U_i(n) = X(n) * D_i per station.
	Utilizations []float64
}

// Validate checks the network parameters.
func (nw *Network) Validate() error {
	if len(nw.Demands) == 0 {
		return errors.New("queueing: network needs at least one station")
	}
	for i, d := range nw.Demands {
		if d < 0 {
			return fmt.Errorf("queueing: negative demand %v at station %d", d, i)
		}
	}
	if nw.ThinkTime < 0 {
		return errors.New("queueing: negative think time")
	}
	return nil
}

// mvaStep advances the exact-MVA recurrence by one population step:
// it fills stationR from (demands, queues), returns R(pop) and X(pop),
// and updates queues in place. Every MVA path in the package — direct
// solves, series sweeps, and the memo's extend path — runs the
// recurrence through this one function, which makes their bit-equality
// structural rather than a matter of keeping three loops in sync.
//
// The station loop is unrolled 4-wide with *sequential* adds into the
// response accumulator: the four R_i products are independent (the
// compiler can schedule them), but the accumulation order is exactly
// the scalar loop's, so results stay bit-identical to the historical
// formulation.
func mvaStep(demands, queues, stationR []float64, pop int, think float64) (response, throughput float64) {
	k := len(demands)
	i := 0
	for ; i+4 <= k; i += 4 {
		r0 := demands[i] * (1 + queues[i])
		r1 := demands[i+1] * (1 + queues[i+1])
		r2 := demands[i+2] * (1 + queues[i+2])
		r3 := demands[i+3] * (1 + queues[i+3])
		stationR[i], stationR[i+1], stationR[i+2], stationR[i+3] = r0, r1, r2, r3
		response += r0
		response += r1
		response += r2
		response += r3
	}
	for ; i < k; i++ {
		stationR[i] = demands[i] * (1 + queues[i])
		response += stationR[i]
	}
	throughput = float64(pop) / (think + response)
	for j := 0; j < k; j++ {
		queues[j] = throughput * stationR[j]
	}
	return response, throughput
}

// Solve runs exact MVA for population n and returns the steady state.
func (nw *Network) Solve(n int) (*Result, error) {
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, errors.New("queueing: negative population")
	}
	k := len(nw.Demands)
	queues := make([]float64, k)
	res := &Result{Clients: n, QueueLengths: make([]float64, k), Utilizations: make([]float64, k)}
	if n == 0 {
		return res, nil
	}
	var response, throughput float64
	stationR := make([]float64, k)
	for pop := 1; pop <= n; pop++ {
		response, throughput = mvaStep(nw.Demands, queues, stationR, pop, nw.ThinkTime)
	}
	res.ResponseTime = response
	res.Throughput = throughput
	copy(res.QueueLengths, queues)
	for i, d := range nw.Demands {
		res.Utilizations[i] = throughput * d
	}
	return res, nil
}
