package trace

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// TestAtWithinBoundsProperty: sampling any offset returns a value the
// trace actually contains.
func TestAtWithinBoundsProperty(t *testing.T) {
	f := func(seed int64, offsetMin uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := Messenger(SynthConfig{Rng: rng, DailyPhaseShift: true})
		v := tr.At(time.Duration(offsetMin) * time.Minute)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, l := range tr.Loads {
			lo = math.Min(lo, l)
			hi = math.Max(hi, l)
		}
		return v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestScaleToPreservesShapeProperty: scaling preserves ratios between
// samples and sets the exact peak.
func TestScaleToPreservesShapeProperty(t *testing.T) {
	f := func(seed int64, peakX uint16) bool {
		peak := 1 + float64(peakX%2000)
		rng := rand.New(rand.NewSource(seed))
		tr := HotMail(SynthConfig{Rng: rng})
		scaled := tr.ScaleTo(peak)
		if math.Abs(scaled.Peak()-peak) > 1e-6 {
			return false
		}
		// Ratios preserved at three probe points.
		for _, i := range []int{0, tr.Len() / 2, tr.Len() - 1} {
			if tr.Loads[i] == 0 {
				continue
			}
			want := tr.Loads[i] / tr.Peak() * peak
			if math.Abs(scaled.Loads[i]-want) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSineBoundsProperty: every sample stays within [min, max].
func TestSineBoundsProperty(t *testing.T) {
	f := func(minX, spanX, periodMin uint16) bool {
		lo := float64(minX % 1000)
		hi := lo + 1 + float64(spanX%1000)
		period := time.Duration(periodMin%120+1) * time.Minute
		tr := Sine(lo, hi, period, 3*time.Hour, time.Minute)
		for _, v := range tr.Loads {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return tr.Len() == 180
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestCSVRoundTripProperty: write/read preserves every sample within
// the encoder precision.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := Messenger(SynthConfig{Rng: rng})
		var buf bytes.Buffer
		if err := tr.writeCSV(&buf); err != nil {
			return false
		}
		back, err := readCSV(&buf, tr.Name)
		if err != nil {
			return false
		}
		if back.Len() != tr.Len() {
			return false
		}
		for i := range tr.Loads {
			if math.Abs(back.Loads[i]-tr.Loads[i]) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestCSVRoundTripArbitraryProperty widens the round-trip check beyond
// hourly synthetic traces: arbitrary load values and sub-hourly steps,
// verifying that ReadCSV's step inference and every sample survive the
// trip within encoder precision (4 decimal places).
func TestCSVRoundTripArbitraryProperty(t *testing.T) {
	// Steps exactly representable in 4 decimal hours, so the
	// inferred step must match exactly.
	steps := []time.Duration{15 * time.Minute, 30 * time.Minute, time.Hour, 90 * time.Minute}
	f := func(seed int64, stepIdx uint8, lenX uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{
			Name:  "arb",
			Step:  steps[int(stepIdx)%len(steps)],
			Loads: make([]float64, 2+int(lenX)%200),
		}
		for i := range tr.Loads {
			tr.Loads[i] = rng.Float64() * 5000
		}
		var buf bytes.Buffer
		if err := tr.writeCSV(&buf); err != nil {
			return false
		}
		back, err := readCSV(&buf, tr.Name)
		if err != nil {
			return false
		}
		if back.Len() != tr.Len() || back.Step != tr.Step {
			return false
		}
		for i := range tr.Loads {
			if math.Abs(back.Loads[i]-tr.Loads[i]) > 1e-3 {
				return false
			}
		}
		// Zero-order-hold sampling agrees at a random offset.
		off := time.Duration(rng.Int63n(int64(tr.Duration())))
		return math.Abs(back.At(off)-tr.At(off)) <= 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
