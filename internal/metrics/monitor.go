package metrics

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Source is anything that exposes true underlying event rates — in this
// repository the service simulators. RatesAt writes the per-second
// rate of the event at dense index idx[k] (see Index; an index below 0
// reads 0) into dst[k]. The Monitor asks only for the events it
// monitors and turns their rates into noisy counter readings.
type Source interface {
	RatesAt(idx []int, dst []float64)
}

// StaticSource is a fixed-rate Source, handy for tests. Events
// missing from the map read 0.
type StaticSource map[Event]float64

// RatesAt implements Source.
func (s StaticSource) RatesAt(idx []int, dst []float64) {
	for k, i := range idx {
		if dst[k] = 0; i >= 0 {
			dst[k] = s[EventAt(i)]
		}
	}
}

// Bank models the processor's programmable HPC registers. Only
// NumRegisters hardware events can be counted simultaneously at full
// fidelity; monitoring more requires time-division multiplexing, which
// costs accuracy (paper §3.3, citing Mathur & Cook).
type Bank struct {
	// NumRegisters is the number of simultaneously programmable
	// counters; the paper's Xeon X5472 has four.
	NumRegisters int
	// MultiplexNoise is the relative standard deviation of the extra
	// estimation error per unit of over-subscription.
	MultiplexNoise float64
}

// DefaultBank mirrors the paper's profiling host: four registers and a
// 2% multiplexing noise floor per oversubscription unit.
func DefaultBank() *Bank {
	return &Bank{NumRegisters: 4, MultiplexNoise: 0.02}
}

// MultiplexFactor returns the time-sharing factor for monitoring n HPC
// events: 1 when n fits the registers, n/NumRegisters otherwise.
func (b *Bank) MultiplexFactor(n int) float64 {
	if n <= b.NumRegisters {
		return 1
	}
	return float64(n) / float64(b.NumRegisters)
}

// Sample is one monitoring observation: per-event counter values
// normalized to events per second, plus the window they were taken
// over.
type Sample struct {
	Values map[Event]float64
	Window time.Duration
}

// Monitor collects workload signatures by reading a Source through a
// register-constrained Bank. Readings are normalized by the sampling
// window so that signatures generalize "across workloads regardless of
// how long the sampling takes" (paper §3.3).
type Monitor struct {
	// Events is the set of events to monitor. Treat the slice as
	// immutable once sampling has started: the monitor pre-resolves
	// dense indices for it.
	Events []Event
	// Bank constrains simultaneous HPC monitoring; nil means
	// DefaultBank.
	Bank *Bank
	// BaseNoise is the relative standard deviation of measurement
	// noise even without multiplexing (run-to-run variation; the
	// paper's Fig. 4 trials show small jitter per load level).
	BaseNoise float64
	// Rng supplies measurement noise; required.
	Rng *rand.Rand

	// Pre-resolved per-event dense indices (what the source is asked
	// for) and HPC flags. Built lazily so hand-assembled Monitor
	// literals keep working; rebuilt when the Events slice is replaced
	// (identity check — mutating the slice contents in place is not
	// supported).
	resolvedFor []Event
	evIdx       []int
	evHPC       []bool
	nHPC        int
}

// resolve (re)builds the dense-index tables for the current event set.
func (m *Monitor) resolve() {
	if len(m.resolvedFor) == len(m.Events) &&
		(len(m.Events) == 0 || &m.resolvedFor[0] == &m.Events[0]) {
		return
	}
	m.resolvedFor = m.Events
	m.evIdx = make([]int, len(m.Events))
	m.evHPC = make([]bool, len(m.Events))
	m.nHPC = 0
	for i, ev := range m.Events {
		m.evIdx[i] = Index(ev)
		m.evHPC[i] = IsHPCIndex(m.evIdx[i])
		if m.evHPC[i] {
			m.nHPC++
		}
	}
}

// NewMonitor returns a Monitor over the given events with the default
// bank and a 1% base noise.
func NewMonitor(events []Event, rng *rand.Rand) (*Monitor, error) {
	if rng == nil {
		return nil, errors.New("metrics: rng must be set")
	}
	if len(events) == 0 {
		return nil, errors.New("metrics: no events to monitor")
	}
	return &Monitor{
		Events:    append([]Event(nil), events...),
		Bank:      DefaultBank(),
		BaseNoise: 0.01,
		Rng:       rng,
	}, nil
}

// Sample reads the source over the given window and returns normalized
// per-second values. HPC events beyond the register budget get extra
// multiplexing noise; xentop metrics are software-read and only carry
// base noise. Window must be positive.
func (m *Monitor) Sample(src Source, window time.Duration) (*Sample, error) {
	values := make([]float64, len(m.Events))
	if err := m.SampleVector(src, window, values); err != nil {
		return nil, err
	}
	out := make(map[Event]float64, len(m.Events))
	for i, ev := range m.Events {
		out[ev] = values[i]
	}
	return &Sample{Values: out, Window: window}, nil
}

// SampleVector is the allocation-free fast path of Sample: it writes
// the normalized per-second values into dst, aligned with m.Events
// (dst must have the same length). The noise model, RNG consumption
// order, and arithmetic are identical to Sample, so at a fixed seed
// the two paths produce bit-identical readings. The source writes its
// rates straight into dst, which the noise then overwrites in place,
// so the call performs no heap allocation.
func (m *Monitor) SampleVector(src Source, window time.Duration, dst []float64) error {
	if window <= 0 {
		return fmt.Errorf("metrics: non-positive sampling window %v", window)
	}
	if src == nil {
		return errors.New("metrics: nil source")
	}
	if len(dst) != len(m.Events) {
		return fmt.Errorf("metrics: dst length %d, monitoring %d events", len(dst), len(m.Events))
	}
	m.resolve()
	bank := m.Bank
	if bank == nil {
		bank = DefaultBank()
	}
	mux := bank.MultiplexFactor(m.nHPC)
	muxNoise := 0.0
	if mux > 1 {
		muxNoise = bank.MultiplexNoise * (mux - 1)
	}

	src.RatesAt(m.evIdx, dst)

	// Noise shrinks with longer windows (more samples average out):
	// scale by 1/sqrt(window seconds), floored at 1s.
	secs := window.Seconds()
	if secs < 1 {
		secs = 1
	}
	sqrtSecs := math.Sqrt(secs)
	for i, rate := range dst {
		noise := m.BaseNoise
		if m.evHPC[i] {
			noise += muxNoise
		}
		sd := noise / sqrtSecs
		observed := rate * (1 + m.Rng.NormFloat64()*sd)
		if observed < 0 {
			observed = 0
		}
		dst[i] = observed
	}
	return nil
}
