package queueing

import (
	"errors"
	"math"
)

// MemoSolver memoizes exact-MVA solves. Results are keyed by the
// network's parameter hash and the population, and — because exact MVA
// is a recurrence over populations 1..n — the solver keeps the
// recurrence state of the largest population solved per network, so
// Solve(n+k) after Solve(n) only runs k iterations instead of n+k
// ("extend" path). This is the control-plane analogue of the paper's
// observation that cached decisions make adaptation ~10× cheaper than
// recomputing them: capacity planners re-solve the same network at
// slowly growing populations every control interval.
//
// The fleet simulator itself plans with services.PerfMemo (its
// services are closed-form); MemoSolver is the equivalent cache for
// MVA-based analytical planners built on this package, exercised by
// the memo tests and the BenchmarkMVAMemoized baseline.
//
// A MemoSolver is owned by a single goroutine; share networks across
// goroutines by giving each its own solver.
type MemoSolver struct {
	networks map[uint64]*networkMemo
}

// networkMemo is the cached state for one network parameterization.
type networkMemo struct {
	demands   []float64 // defensive copy, also the hash-collision check
	thinkTime float64

	// Recurrence state after solving population pop.
	queues     []float64
	stationR   []float64
	pop        int
	response   float64
	throughput float64

	// results caches completed solves by population, capped at
	// maxMemoResults entries per network so long-lived solvers over
	// many distinct populations stay bounded (the rolling recurrence
	// state still makes ascending solves incremental past the cap).
	results map[int]*Result
}

// maxMemoResults bounds the per-network population cache.
const maxMemoResults = 1024

// NewMemoSolver returns an empty solver.
func NewMemoSolver() *MemoSolver {
	return &MemoSolver{networks: make(map[uint64]*networkMemo)}
}

// hashNetwork folds the demands and think time into a 64-bit key
// (FNV-1a over the raw float bits).
func hashNetwork(nw *Network) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v float64) {
		b := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h ^= b & 0xff
			h *= 1099511628211
			b >>= 8
		}
	}
	mix(nw.ThinkTime)
	for _, d := range nw.Demands {
		mix(d)
	}
	return h
}

// sameNetwork guards against hash collisions and callers mutating
// their Network in place between solves.
func (m *networkMemo) sameNetwork(nw *Network) bool {
	if m.thinkTime != nw.ThinkTime || len(m.demands) != len(nw.Demands) {
		return false
	}
	for i, d := range m.demands {
		if d != nw.Demands[i] {
			return false
		}
	}
	return true
}

// Solve returns the steady state for population n, reusing memoized
// results and extending the recurrence incrementally when possible.
// The returned Result is a fresh copy each call (cached internals are
// never aliased), and its values are bit-identical to nw.Solve(n):
// the extend path runs the same recurrence in the same order, just
// without restarting from population 1.
func (m *MemoSolver) Solve(nw *Network, n int) (*Result, error) {
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, errors.New("queueing: negative population")
	}
	key := hashNetwork(nw)
	memo, ok := m.networks[key]
	if ok && !memo.sameNetwork(nw) {
		// Collision or in-place mutation: fall back to a fresh memo
		// for the new parameterization (the old entry is dropped).
		ok = false
	}
	if !ok {
		k := len(nw.Demands)
		memo = &networkMemo{
			demands:   append([]float64(nil), nw.Demands...),
			thinkTime: nw.ThinkTime,
			queues:    make([]float64, k),
			stationR:  make([]float64, k),
			results:   make(map[int]*Result),
		}
		m.networks[key] = memo
	}
	if r, ok := memo.results[n]; ok {
		return copyResult(r), nil
	}
	if n < memo.pop {
		// The recurrence only runs forward; a smaller, never-requested
		// population needs a fresh solve (it is memoized for next time).
		r, err := nw.Solve(n)
		if err != nil {
			return nil, err
		}
		memo.store(n, r)
		return r, nil
	}
	// Extend path: continue the recurrence from the last solved
	// population (possibly 0) up to n, through the same mvaStep the
	// direct solver runs — bit-equality with nw.Solve(n) is structural.
	k := len(memo.demands)
	for pop := memo.pop + 1; pop <= n; pop++ {
		memo.response, memo.throughput = mvaStep(memo.demands, memo.queues, memo.stationR, pop, memo.thinkTime)
	}
	memo.pop = n
	r := &Result{
		Clients:      n,
		QueueLengths: make([]float64, k),
		Utilizations: make([]float64, k),
	}
	if n > 0 {
		r.ResponseTime = memo.response
		r.Throughput = memo.throughput
		copy(r.QueueLengths, memo.queues)
		for i, d := range memo.demands {
			r.Utilizations[i] = memo.throughput * d
		}
	}
	memo.store(n, r)
	return r, nil
}

// store memoizes a completed solve unless the per-network cap is hit.
func (m *networkMemo) store(n int, r *Result) {
	if len(m.results) < maxMemoResults {
		m.results[n] = copyResult(r)
	}
}

func copyResult(r *Result) *Result {
	out := *r
	out.QueueLengths = append([]float64(nil), r.QueueLengths...)
	out.Utilizations = append([]float64(nil), r.Utilizations...)
	return &out
}
