package services

import "math"

// perfMemoCells is the direct-mapped cache size. Operating points are
// quantized into cells by hashing the exact (clients, capacity,
// demand-factor) triple; a simulation run revisits very few distinct
// points at a time (traces hold load for a whole sample period), so a
// small table captures nearly all reuse.
const perfMemoCells = 64

type perfCell struct {
	clients  float64
	capacity float64
	mix      Mix
	perf     Perf
	valid    bool
}

// PerfMemo memoizes Service.Perf over quantized (clients, capacity,
// demand-factor) cells. Each cell stores the exact operating point it
// was computed for and is verified on every hit, so the memo returns
// bit-identical results to calling Perf directly — it is a pure
// performance cache, never an approximation. A worker shares one memo
// across its template's VMs, so it pays only where a run comes back to
// an exact operating point. On the system benchmark's fleet (10 000
// workload-shift VMs, seed 42, one worker) it hits 149 of 292 725 calls,
// 0.05 %, and its lastIdx short-circuit none: each VM's trace is scaled
// to its own peak, so VMs rarely share a point.
//
// A PerfMemo is owned by a single goroutine (one per simulation run).
type PerfMemo struct {
	svc Service
	// lastIdx short-circuits a repeat of the previous point: three float
	// compares and a mix compare, no hashing. sim.Run carries an unmoved
	// point across steps itself and only calls when it moved, so the
	// repeats left are a point that moved and came back — interference
	// flipping between two levels, a capacity restored after a resize —
	// and callers that ask every step (the deprecated MixFn fallback, a
	// minute-granular trace, benchmark/budget.go).
	lastIdx int
	cells   [perfMemoCells]perfCell
}

// NewPerfMemo returns an empty memo over the given service.
func NewPerfMemo(svc Service) *PerfMemo {
	return &PerfMemo{svc: svc}
}

// Perf returns the service's performance for the workload and
// capacity, reusing the cached result when the exact operating point
// was evaluated before. Hit verification compares the FULL mix, not
// just its demand factor: the Service contract hands Perf the whole
// Workload, so a future service may legally read any Mix field — the
// memo must stay a pure cache for that service too. The workload is
// taken by pointer purely to keep the per-step call cheap; it is not
// retained.
func (p *PerfMemo) Perf(w *Workload, capacity float64) Perf {
	c := &p.cells[p.lastIdx]
	if c.valid && c.clients == w.Clients && c.capacity == capacity && c.mix == w.Mix {
		return c.perf
	}
	idx := perfCellIndex(w.Clients, capacity, w.Mix.Demand())
	p.lastIdx = idx
	c = &p.cells[idx]
	if c.valid && c.clients == w.Clients && c.capacity == capacity && c.mix == w.Mix {
		return c.perf
	}
	// A miss stores the cell field by field: a composite literal would
	// be built whole on the stack and then copied into the cell.
	perf := p.svc.Perf(*w, capacity)
	c.clients, c.capacity, c.mix, c.perf, c.valid = w.Clients, capacity, w.Mix, perf, true
	return perf
}

// perfCellIndex hashes the exact operating point into a cell index.
func perfCellIndex(clients, capacity, demand float64) int {
	h := math.Float64bits(clients)
	h = h*0x9e3779b97f4a7c15 ^ math.Float64bits(capacity)
	h = h*0x9e3779b97f4a7c15 ^ math.Float64bits(demand)
	h ^= h >> 29
	return int(h % perfMemoCells)
}
