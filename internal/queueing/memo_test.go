package queueing

import (
	"math/rand"
	"testing"
)

// TestMemoSolverMatchesDirect: memoized and extended solves must be
// bit-identical to fresh Network.Solve runs for every population,
// regardless of request order.
func TestMemoSolverMatchesDirect(t *testing.T) {
	nw := &Network{Demands: []float64{0.010, 0.025, 0.008}, ThinkTime: 1.5}
	ms := NewMemoSolver()
	// Ascending (extend path), repeated (memo path), and descending
	// (fresh-solve path) requests.
	order := []int{1, 10, 10, 250, 500, 500, 100, 3, 250, 0}
	for _, n := range order {
		got, err := ms.Solve(nw, n)
		if err != nil {
			t.Fatalf("memo solve %d: %v", n, err)
		}
		want, err := nw.Solve(n)
		if err != nil {
			t.Fatalf("direct solve %d: %v", n, err)
		}
		if got.Clients != want.Clients || got.ResponseTime != want.ResponseTime || got.Throughput != want.Throughput {
			t.Fatalf("n=%d: memo %+v != direct %+v", n, got, want)
		}
		for i := range want.QueueLengths {
			if got.QueueLengths[i] != want.QueueLengths[i] {
				t.Fatalf("n=%d: queue[%d] %v != %v", n, i, got.QueueLengths[i], want.QueueLengths[i])
			}
			if got.Utilizations[i] != want.Utilizations[i] {
				t.Fatalf("n=%d: util[%d] %v != %v", n, i, got.Utilizations[i], want.Utilizations[i])
			}
		}
	}
}

// TestMemoSolverRandomNetworks fuzzes network parameterizations to
// exercise the per-network keying and collision guard.
func TestMemoSolverRandomNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ms := NewMemoSolver()
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(4)
		demands := make([]float64, k)
		for i := range demands {
			demands[i] = rng.Float64() * 0.05
		}
		nw := &Network{Demands: demands, ThinkTime: rng.Float64() * 2}
		n := rng.Intn(300)
		got, err := ms.Solve(nw, n)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := nw.Solve(n)
		if err != nil {
			t.Fatalf("trial %d direct: %v", trial, err)
		}
		if got.ResponseTime != want.ResponseTime || got.Throughput != want.Throughput {
			t.Fatalf("trial %d: memo %+v != direct %+v", trial, got, want)
		}
	}
}

// TestMemoSolverResultIsolation: callers may mutate returned results
// without corrupting the memo.
func TestMemoSolverResultIsolation(t *testing.T) {
	nw := &Network{Demands: []float64{0.02}, ThinkTime: 1}
	ms := NewMemoSolver()
	first, err := ms.Solve(nw, 50)
	if err != nil {
		t.Fatal(err)
	}
	first.QueueLengths[0] = -1
	first.ResponseTime = -1
	second, err := ms.Solve(nw, 50)
	if err != nil {
		t.Fatal(err)
	}
	if second.ResponseTime < 0 || second.QueueLengths[0] < 0 {
		t.Fatal("memoized result was corrupted by caller mutation")
	}
}

// TestMemoSolverMutatedNetwork: mutating a network in place must not
// serve stale results.
func TestMemoSolverMutatedNetwork(t *testing.T) {
	demands := []float64{0.02, 0.01}
	nw := &Network{Demands: demands, ThinkTime: 1}
	ms := NewMemoSolver()
	if _, err := ms.Solve(nw, 100); err != nil {
		t.Fatal(err)
	}
	demands[0] = 0.04 // in-place mutation, same slice header
	got, err := ms.Solve(nw, 100)
	if err != nil {
		t.Fatal(err)
	}
	want, err := nw.Solve(100)
	if err != nil {
		t.Fatal(err)
	}
	if got.ResponseTime != want.ResponseTime {
		t.Fatalf("stale result after mutation: memo %v, direct %v", got.ResponseTime, want.ResponseTime)
	}
}

// TestMemoSolverValidation mirrors Network.Solve's error cases.
func TestMemoSolverValidation(t *testing.T) {
	ms := NewMemoSolver()
	if _, err := ms.Solve(&Network{}, 10); err == nil {
		t.Fatal("expected error for empty network")
	}
	if _, err := ms.Solve(&Network{Demands: []float64{0.1}}, -1); err == nil {
		t.Fatal("expected error for negative population")
	}
}

// TestMemoSolverSize checks the bookkeeping used by reports.
func TestMemoSolverSize(t *testing.T) {
	nw := &Network{Demands: []float64{0.02}, ThinkTime: 1}
	ms := NewMemoSolver()
	for _, n := range []int{10, 20, 10} {
		if _, err := ms.Solve(nw, n); err != nil {
			t.Fatal(err)
		}
	}
	if got := ms.size(); got != 2 {
		t.Fatalf("size() = %d, want 2", got)
	}
}

// size returns how many (network, population) results are memoized.
func (m *MemoSolver) size() int {
	n := 0
	for _, memo := range m.networks {
		n += len(memo.results)
	}
	return n
}
