package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"time"
)

// This file is the trace-replay layer: recorded cluster traces arrive
// as irregularly spaced samples (monitoring scrapes drift, agents
// restart, whole scrape intervals go missing), while the simulation
// engine wants a fixed-step Trace. Samples holds the recorded form,
// Resample turns it into a Trace by zero-order hold — exactly the
// hold semantics the engine itself applies between samples — and
// FillCluster synthesizes a cluster-style recording (irregular
// scrape cadence, diurnal swing, gaps, incident bursts) for fleets
// that have no proprietary recording to replay.

// Sample is one recorded observation: a load value at an offset from
// the start of the recording.
type Sample struct {
	// At is the offset from the recording start.
	At time.Duration
	// Load is the observed load (same normalized-percent convention
	// as Trace).
	Load float64
}

// Samples is a recorded load series with irregular timestamps, the
// raw form of a replayed cluster trace.
type Samples struct {
	// Name identifies the recording.
	Name string
	// Points are the observations, ordered by At.
	Points []Sample
}

// Validate checks replay invariants: at least one point, strictly
// increasing offsets starting at or after zero, non-negative loads.
func (s *Samples) Validate() error {
	if len(s.Points) == 0 {
		return fmt.Errorf("trace: recording %q is empty", s.Name)
	}
	prev := time.Duration(-1)
	for i, p := range s.Points {
		if p.At < 0 {
			return fmt.Errorf("trace: recording %q sample %d at negative offset %v", s.Name, i, p.At)
		}
		if p.At <= prev {
			return fmt.Errorf("trace: recording %q sample %d offset %v not after %v", s.Name, i, p.At, prev)
		}
		if p.Load < 0 {
			return fmt.Errorf("trace: recording %q sample %d negative load %v", s.Name, i, p.Load)
		}
		prev = p.At
	}
	return nil
}

// Duration returns the recording's covered span (last offset).
func (s *Samples) Duration() time.Duration {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].At
}

// Resample converts the recording into a fixed-step Trace by
// zero-order hold: each trace sample takes the value of the most
// recent recorded point at or before it, so gaps in the recording —
// missed scrapes, agent restarts — hold the last observed load
// rather than inventing one. Offsets before the first point hold the
// first point's load. The trace covers the recording's full span
// rounded up to a whole step.
func (s *Samples) Resample(step time.Duration) (*Trace, error) {
	t := &Trace{}
	if err := s.ResampleInto(t, step); err != nil {
		return nil, err
	}
	return t, nil
}

// ResampleInto is Resample into dst, reusing dst.Loads' backing array.
func (s *Samples) ResampleInto(dst *Trace, step time.Duration) error {
	if step <= 0 {
		return fmt.Errorf("trace: resample step %v must be positive", step)
	}
	if err := s.Validate(); err != nil {
		return err
	}
	n := int((s.Duration() + step - 1) / step)
	if n == 0 {
		n = 1
	}
	loads := dst.Loads[:0]
	if cap(loads) < n {
		loads = make([]float64, n)
	}
	loads = loads[:n]
	j := 0
	for i := 0; i < n; i++ {
		at := time.Duration(i) * step
		for j+1 < len(s.Points) && s.Points[j+1].At <= at {
			j++
		}
		loads[i] = s.Points[j].Load
	}
	*dst = Trace{Name: s.Name, Step: step, Loads: loads}
	return nil
}

// ReadSamplesCSV parses a recording of "offset_hours,load" rows under
// a header. Offsets may be irregular; they must be strictly
// increasing.
func ReadSamplesCSV(r io.Reader, name string) (*Samples, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: reading recording csv: %w", err)
	}
	if len(records) < 2 {
		return nil, fmt.Errorf("trace: recording csv has no data rows")
	}
	s := &Samples{Name: name, Points: make([]Sample, 0, len(records)-1)}
	for i, rec := range records[1:] {
		if len(rec) != 2 {
			return nil, fmt.Errorf("trace: recording row %d has %d fields, want 2", i+1, len(rec))
		}
		off, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: recording row %d offset: %w", i+1, err)
		}
		load, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: recording row %d load: %w", i+1, err)
		}
		// Round rather than truncate: nanosecond counts out to ~100
		// days fit a float64 mantissa exactly, so rounding makes the
		// hours<->Duration conversion a perfect round trip.
		s.Points = append(s.Points, Sample{
			At:   time.Duration(math.Round(off * float64(time.Hour))),
			Load: load,
		})
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// ClusterConfig tunes FillCluster.
type ClusterConfig struct {
	// Rng drives all randomness; required.
	Rng *rand.Rand
	// Days is the recording length in days (default 7).
	Days int
}

const (
	// meanScrapeInterval is SynthCluster's average scrape spacing.
	// Actual intervals jitter between 0.5x and 1.5x of it.
	meanScrapeInterval = 20 * time.Minute
	// gapRate is the per-sample probability that the next scrape is
	// lost to an outage, leaving a multi-hour hole the zero-order hold
	// must bridge.
	gapRate = 0.02
	// burstRate is the per-sample probability of an incident burst: a
	// short load excursion well above the diurnal envelope.
	burstRate = 0.01
)

// FillCluster synthesizes a cluster-style recording into s, reusing
// s.Points' backing array: a diurnal load envelope sampled at an
// irregular scrape cadence, with occasional multi-hour outage gaps and
// short incident bursts. The result is the raw material of the
// trace-replay scenario kind — it goes through the same Resample path
// a recorded production trace would.
func (s *Samples) FillCluster(cfg ClusterConfig) {
	if cfg.Days <= 0 {
		cfg.Days = 7
	}
	rng := cfg.Rng
	total := time.Duration(cfg.Days) * 24 * time.Hour
	s.Name, s.Points = "cluster", s.Points[:0]

	at := time.Duration(0)
	for at < total {
		hour := at.Hours()
		// Diurnal envelope between ~25 and ~95 with day-to-day drift.
		day := 60 + 35*math.Sin(2*math.Pi*(hour-14)/24)
		v := day * (1 + 0.05*rng.NormFloat64())
		if rng.Float64() < burstRate {
			v *= 1.5 + rng.Float64()
		}
		if v < 1 {
			v = 1
		}
		s.Points = append(s.Points, Sample{At: at, Load: v})

		step := time.Duration((0.5 + rng.Float64()) * float64(meanScrapeInterval))
		if rng.Float64() < gapRate {
			// Outage: hours of missing scrapes.
			step += time.Duration(1+rng.Intn(4)) * time.Hour
		}
		at += step
	}
	// Recordings end where they end; guarantee the full span is
	// covered so Resample yields Days*24 hourly samples.
	if last := s.Points[len(s.Points)-1].At; last < total-time.Nanosecond {
		s.Points = append(s.Points, Sample{At: total - time.Nanosecond, Load: s.Points[len(s.Points)-1].Load})
	}
}
