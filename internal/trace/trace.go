// Package trace provides the load traces driving the evaluation. The
// paper replays one-week MSN HotMail and Windows Live Messenger traces
// from September 2009 (hourly samples, aggregated over thousands of
// servers, normalized load). Those traces are proprietary, so this
// package synthesizes week-long traces with the same published
// structure: a repeating diurnal pattern, a weekend dip, and — for the
// HotMail trace — an unforeseen surge on day 4 that exceeds anything
// seen during the learning day (paper §4.1). It also provides the
// sine-wave trace behind Figure 1 and generic step/spike generators.
package trace

import (
	"errors"
	"fmt"
	"time"
)

// Trace is a load trace: a sequence of samples at a fixed step,
// starting at time zero. Loads are normalized to [0, 100] percent of
// trace peak, matching the paper's "Normalized load [%]" axes.
type Trace struct {
	// Name identifies the trace (e.g. "hotmail").
	Name string
	// Step is the sampling interval (1 hour for the MSN traces).
	Step time.Duration
	// Loads holds one normalized load value per step.
	Loads []float64
}

// Duration returns the total covered time span.
func (t *Trace) Duration() time.Duration {
	return time.Duration(len(t.Loads)) * t.Step
}

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.Loads) }

// At returns the load at the given offset from the trace start using
// zero-order hold (the trace keeps its value until the next sample).
// Offsets beyond the end return the last sample; negative offsets the
// first.
func (t *Trace) At(offset time.Duration) float64 {
	if len(t.Loads) == 0 {
		return 0
	}
	if offset < 0 {
		return t.Loads[0]
	}
	idx := int(offset / t.Step)
	if idx >= len(t.Loads) {
		idx = len(t.Loads) - 1
	}
	return t.Loads[idx]
}

// Peak returns the maximum load in the trace.
func (t *Trace) Peak() float64 {
	peak := 0.0
	for _, l := range t.Loads {
		if l > peak {
			peak = l
		}
	}
	return peak
}

// Normalize rescales the trace in place so its peak is 100. A zero
// trace is left unchanged.
func (t *Trace) Normalize() {
	peak := t.Peak()
	if peak == 0 {
		return
	}
	for i := range t.Loads {
		t.Loads[i] = t.Loads[i] / peak * 100
	}
}

// ScaleTo returns a copy whose peak equals the given value; the paper
// "proportionally scale[s] down the load such that the peak load from
// the traces corresponds to the maximum number of clients" served at
// full capacity.
func (t *Trace) ScaleTo(peak float64) *Trace {
	out := &Trace{Name: t.Name, Step: t.Step, Loads: append([]float64(nil), t.Loads...)}
	cur := t.Peak()
	if cur == 0 {
		return out
	}
	for i := range out.Loads {
		out.Loads[i] = out.Loads[i] / cur * peak
	}
	return out
}

// Slice returns the sub-trace covering sample indices [from, to).
func (t *Trace) Slice(from, to int) (*Trace, error) {
	if from < 0 || to > len(t.Loads) || from >= to {
		return nil, fmt.Errorf("trace: invalid slice [%d, %d) of %d samples", from, to, len(t.Loads))
	}
	return &Trace{
		Name:  t.Name,
		Step:  t.Step,
		Loads: append([]float64(nil), t.Loads[from:to]...),
	}, nil
}

// Day returns the 24-hour sub-trace for the given zero-based day of an
// hourly trace.
func (t *Trace) Day(day int) (*Trace, error) {
	if t.Step != time.Hour {
		return nil, errors.New("trace: Day requires an hourly trace")
	}
	return t.Slice(day*24, (day+1)*24)
}
