package server

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// DriftConfig tunes the online drift monitor.
type DriftConfig struct {
	// Window is the number of decisions per observation window
	// (default 512).
	Window int
	// Threshold is the unforeseen-signature fraction at which a
	// window triggers re-learning (default 0.5 — half the window's
	// workloads look unlike every learned class).
	Threshold float64
}

const (
	// recentCapacity bounds the recent-signature ring the relearn
	// corpus is drawn from, in rows.
	recentCapacity = 2048
	// sampleStride: the ring records every sampleStride-th foreseen
	// signature (unforeseen ones are always recorded). The relearn
	// corpus therefore mixes the novel workloads that caused the drift
	// with a sample of the still-live old ones, so the rebuilt
	// clustering covers both.
	sampleStride = 16
	// minRelearnRows is the smallest ring population worth
	// re-clustering.
	minRelearnRows = 64
)

func (c *DriftConfig) defaults() {
	if c.Window <= 0 {
		c.Window = 512
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.5
	}
}

// driftMonitor tracks the unforeseen-signature rate per fixed-size
// decision window, lock-free. Counting is atomics-only on the
// decision path, once per batch; window accounting is approximate
// under concurrency (a straggler's unforeseen count may land in the
// neighbouring window) which is fine — the trigger is a rate
// threshold, not an audit.
type driftMonitor struct {
	window    int64
	threshold float64

	decisions  atomic.Int64 // cumulative; window boundary every `window`
	unforeseen atomic.Int64 // current window
	windows    atomic.Int64
	triggers   atomic.Int64
	lastRate   atomic.Uint64 // math.Float64bits of the last closed window's rate
}

func newDriftMonitor(cfg DriftConfig) *driftMonitor {
	return &driftMonitor{window: int64(cfg.Window), threshold: cfg.Threshold}
}

// observeBatch counts one batch of n decisions, unforeseen of them
// unforeseen, and reports whether it closed a window whose unforeseen
// rate crossed the threshold. A window closes when the cumulative
// count crosses a multiple of Window — at most once per batch: a batch
// spanning several boundaries closes them as one long window, its
// rate taken over all of them. The rows of a straddling batch that
// lie past the boundary are counted into the window they close (the
// same approximation as above), so the rate is clamped to 1.
func (d *driftMonitor) observeBatch(n, unforeseen int64) bool {
	if unforeseen > 0 {
		d.unforeseen.Add(unforeseen)
	}
	end := d.decisions.Add(n)
	crossed := end/d.window - (end-n)/d.window
	if crossed == 0 {
		return false
	}
	rate := math.Min(1, float64(d.unforeseen.Swap(0))/float64(crossed*d.window))
	d.lastRate.Store(math.Float64bits(rate))
	d.windows.Add(1)
	if rate >= d.threshold {
		d.triggers.Add(1)
		return true
	}
	return false
}

// LastWindowRate returns the unforeseen rate of the last closed
// window.
func (d *driftMonitor) LastWindowRate() float64 {
	return math.Float64frombits(d.lastRate.Load())
}

// signatureRing keeps the most recent observed signatures as the
// re-learning corpus: every unforeseen signature plus every stride-th
// foreseen one. Rows are preallocated at fixed width, so recording is
// a short mutex-guarded copy — no allocation on the decision path.
type signatureRing struct {
	mu      sync.Mutex
	rows    [][]float64
	filled  int
	next    int
	stride  int64
	counter atomic.Int64 // foreseen signatures seen, cumulative
}

func newSignatureRing(capacity, width, stride int) *signatureRing {
	r := &signatureRing{rows: make([][]float64, capacity), stride: int64(stride)}
	backing := make([]float64, capacity*width)
	for i := range r.rows {
		r.rows[i] = backing[i*width : (i+1)*width]
	}
	return r
}

// observeBatch records, in row order, every row of a decided batch
// that is unforeseen or whose position in the cumulative count of
// foreseen signatures lands on the sampling stride. unforeseen is how
// many of results are. The count is claimed with one add and the mutex
// is taken once, and only when the batch has a row to record.
func (r *signatureRing) observeBatch(req *wire.Request, results []wire.Decision, unforeseen int) {
	var seen int64 // foreseen signatures counted before this batch's first
	if foreseen := int64(len(results) - unforeseen); foreseen > 0 {
		end := r.counter.Add(foreseen)
		seen = end - foreseen
		if unforeseen == 0 && end/r.stride == seen/r.stride {
			return // all foreseen, none on the stride
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range results {
		if !results[i].Unforeseen {
			if seen++; seen%r.stride != 0 {
				continue
			}
		}
		if vals := req.Row(i); len(vals) == len(r.rows[r.next]) {
			copy(r.rows[r.next], vals)
			r.next = (r.next + 1) % len(r.rows)
			if r.filled < len(r.rows) {
				r.filled++
			}
		}
	}
}

// Len returns how many rows are recorded.
func (r *signatureRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.filled
}

// snapshot copies the recorded rows out (oldest-first order is not
// guaranteed and does not matter to clustering).
func (r *signatureRing) snapshot() [][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]float64, r.filled)
	for i := 0; i < r.filled; i++ {
		out[i] = append([]float64(nil), r.rows[i]...)
	}
	return out
}
