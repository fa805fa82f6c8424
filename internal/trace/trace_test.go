package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

func TestTraceAt(t *testing.T) {
	tr := &Trace{Step: time.Hour, Loads: []float64{10, 20, 30}}
	cases := []struct {
		offset time.Duration
		want   float64
	}{
		{-time.Hour, 10},
		{0, 10},
		{30 * time.Minute, 10},
		{time.Hour, 20},
		{2*time.Hour + 59*time.Minute, 30},
		{100 * time.Hour, 30},
	}
	for _, tc := range cases {
		if got := tr.At(tc.offset); got != tc.want {
			t.Errorf("At(%v)=%v want %v", tc.offset, got, tc.want)
		}
	}
	empty := &Trace{Step: time.Hour}
	if got := empty.At(0); got != 0 {
		t.Errorf("empty At=%v want 0", got)
	}
}

func TestTracePeakAndNormalize(t *testing.T) {
	tr := &Trace{Step: time.Hour, Loads: []float64{10, 50, 25}}
	if tr.Peak() != 50 {
		t.Errorf("Peak=%v want 50", tr.Peak())
	}
	tr.Normalize()
	if tr.Peak() != 100 {
		t.Errorf("normalized Peak=%v want 100", tr.Peak())
	}
	if tr.Loads[0] != 20 {
		t.Errorf("Loads[0]=%v want 20", tr.Loads[0])
	}
	zero := &Trace{Step: time.Hour, Loads: []float64{0, 0}}
	zero.Normalize() // must not divide by zero
	if zero.Loads[0] != 0 {
		t.Errorf("zero trace normalized to %v", zero.Loads[0])
	}
}

func TestTraceScaleTo(t *testing.T) {
	tr := &Trace{Step: time.Hour, Loads: []float64{50, 100}}
	scaled := tr.ScaleTo(400)
	if scaled.Loads[0] != 200 || scaled.Loads[1] != 400 {
		t.Errorf("ScaleTo: %v", scaled.Loads)
	}
	// Original untouched.
	if tr.Loads[1] != 100 {
		t.Error("ScaleTo must not mutate the receiver")
	}
}

func TestTraceSliceAndDay(t *testing.T) {
	tr := Messenger(SynthConfig{})
	day1, err := tr.Day(1)
	if err != nil {
		t.Fatal(err)
	}
	if day1.Len() != 24 {
		t.Errorf("Day len=%d want 24", day1.Len())
	}
	if day1.Loads[0] != tr.Loads[24] {
		t.Error("Day(1) should start at sample 24")
	}
	if _, err := tr.Slice(5, 5); err == nil {
		t.Error("empty slice should error")
	}
	if _, err := tr.Slice(-1, 3); err == nil {
		t.Error("negative from should error")
	}
	minutely := &Trace{Step: time.Minute, Loads: make([]float64, 48)}
	if _, err := minutely.Day(0); err == nil {
		t.Error("Day on non-hourly trace should error")
	}
}

func TestTraceValidate(t *testing.T) {
	good := &Trace{Step: time.Hour, Loads: []float64{1, 2}}
	if err := good.validate(); err != nil {
		t.Errorf("valid trace: %v", err)
	}
	if err := (&Trace{Step: 0, Loads: []float64{1}}).validate(); err == nil {
		t.Error("zero step should fail")
	}
	if err := (&Trace{Step: time.Hour}).validate(); err == nil {
		t.Error("empty should fail")
	}
	if err := (&Trace{Step: time.Hour, Loads: []float64{-1}}).validate(); err == nil {
		t.Error("negative load should fail")
	}
}

func TestMessengerShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := Messenger(SynthConfig{Rng: rng})
	if tr.Len() != 7*24 {
		t.Fatalf("len=%d want 168", tr.Len())
	}
	if err := tr.validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.Peak()-100) > 1e-9 {
		t.Errorf("peak=%v want 100", tr.Peak())
	}
	// Diurnal: evening (20:00) above night (03:00) every weekday.
	for day := 0; day < 5; day++ {
		night := tr.Loads[day*24+3]
		evening := tr.Loads[day*24+20]
		if evening <= night {
			t.Errorf("day %d: evening %v <= night %v", day, evening, night)
		}
	}
	// Weekend dip: Saturday evening below Monday evening.
	if tr.Loads[5*24+20] >= tr.Loads[20] {
		t.Errorf("weekend load %v should be below weekday %v", tr.Loads[5*24+20], tr.Loads[20])
	}
}

func TestHotMailSurge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := HotMail(SynthConfig{Rng: rng})
	if tr.Len() != 7*24 {
		t.Fatalf("len=%d want 168", tr.Len())
	}
	surge := tr.Loads[3*24+20]
	if surge != 100 {
		t.Errorf("surge=%v want 100", surge)
	}
	// The learning day (day 0) must not contain anything close to the
	// surge, otherwise it would not be "unforeseen".
	day0, err := tr.Day(0)
	if err != nil {
		t.Fatal(err)
	}
	if day0.Peak() > 90 {
		t.Errorf("learning-day peak %v too close to surge 100", day0.Peak())
	}
}

func TestHotMailFewerLevelsThanMessenger(t *testing.T) {
	// HotMail's day shape is flatter than Messenger's: its day-hour
	// spread (max-min) must be smaller relative to peak.
	h := HotMail(SynthConfig{})
	m := Messenger(SynthConfig{})
	hd, _ := h.Day(0)
	md, _ := m.Day(0)
	hmin, _ := minOf(hd.Loads)
	mmin, _ := minOf(md.Loads)
	hSpread := hd.Peak() - hmin
	mSpread := md.Peak() - mmin
	if hSpread >= mSpread {
		t.Errorf("hotmail spread %v should be below messenger %v", hSpread, mSpread)
	}
}

func minOf(xs []float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, true
}

func TestSynthDeterministicWithSeed(t *testing.T) {
	a := Messenger(SynthConfig{Rng: rand.New(rand.NewSource(7))})
	b := Messenger(SynthConfig{Rng: rand.New(rand.NewSource(7))})
	for i := range a.Loads {
		if a.Loads[i] != b.Loads[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a.Loads[i], b.Loads[i])
		}
	}
}

func TestSynthNoJitterWithoutRng(t *testing.T) {
	a := Messenger(SynthConfig{})
	b := Messenger(SynthConfig{})
	for i := range a.Loads {
		if a.Loads[i] != b.Loads[i] {
			t.Fatal("jitter applied without rng")
		}
	}
}

func TestSine(t *testing.T) {
	tr := Sine(100, 500, 20*time.Minute, 80*time.Minute, time.Minute)
	if tr.Len() != 80 {
		t.Fatalf("len=%d want 80", tr.Len())
	}
	if math.Abs(tr.Loads[0]-300) > 1e-9 {
		t.Errorf("sine starts at %v want 300 (midpoint)", tr.Loads[0])
	}
	// Quarter period = 5 samples: peak.
	if math.Abs(tr.Loads[5]-500) > 1e-9 {
		t.Errorf("sine quarter=%v want 500", tr.Loads[5])
	}
	if math.Abs(tr.Loads[15]-100) > 1e-9 {
		t.Errorf("sine three-quarter=%v want 100", tr.Loads[15])
	}
	for _, l := range tr.Loads {
		if l < 100-1e-9 || l > 500+1e-9 {
			t.Fatalf("sine out of bounds: %v", l)
		}
	}
	if bad := Sine(0, 1, 0, time.Hour, time.Minute); bad.Len() != 0 {
		t.Error("invalid sine params should give empty trace")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := Messenger(SynthConfig{Rng: rand.New(rand.NewSource(3))})
	var buf bytes.Buffer
	if err := tr.writeCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := readCSV(&buf, "messenger")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round trip len=%d want %d", back.Len(), tr.Len())
	}
	if back.Step != tr.Step {
		t.Errorf("round trip step=%v want %v", back.Step, tr.Step)
	}
	for i := range tr.Loads {
		if math.Abs(back.Loads[i]-tr.Loads[i]) > 1e-3 {
			t.Fatalf("sample %d: %v vs %v", i, back.Loads[i], tr.Loads[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := readCSV(bytes.NewBufferString("offset_hours,load\n"), "x"); err == nil {
		t.Error("header-only csv should error")
	}
	if _, err := readCSV(bytes.NewBufferString("h\n\"bad"), "x"); err == nil {
		t.Error("malformed csv should error")
	}
	if _, err := readCSV(bytes.NewBufferString("offset_hours,load\nabc,1\ndef,2\n"), "x"); err == nil {
		t.Error("non-numeric offset should error")
	}
	if _, err := readCSV(bytes.NewBufferString("offset_hours,load\n0,xyz\n1,2\n"), "x"); err == nil {
		t.Error("non-numeric load should error")
	}
	if _, err := readCSV(bytes.NewBufferString("offset_hours,load\n1,1\n1,2\n"), "x"); err == nil {
		t.Error("non-increasing offsets should error")
	}
}

func TestDurationHelper(t *testing.T) {
	tr := &Trace{Step: time.Hour, Loads: make([]float64, 24)}
	if tr.Duration() != 24*time.Hour {
		t.Errorf("Duration=%v want 24h", tr.Duration())
	}
}

// writeCSV serializes the trace as "offset_hours,load" rows with a
// header, so experiment output can be plotted externally.
func (t *Trace) writeCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"offset_hours", "load"}); err != nil {
		return err
	}
	for i, l := range t.Loads {
		offset := time.Duration(i) * t.Step
		row := []string{
			strconv.FormatFloat(offset.Hours(), 'f', 4, 64),
			strconv.FormatFloat(l, 'f', 4, 64),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// readCSV parses a trace previously written with writeCSV. The step is
// inferred from the first two offsets; a single-row trace gets a 1-hour
// step.
func readCSV(r io.Reader, name string) (*Trace, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: reading csv: %w", err)
	}
	if len(records) < 2 {
		return nil, fmt.Errorf("trace: csv has no data rows")
	}
	var offsets []float64
	var loads []float64
	for i, rec := range records[1:] {
		if len(rec) != 2 {
			return nil, fmt.Errorf("trace: row %d has %d fields, want 2", i+1, len(rec))
		}
		off, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d offset: %w", i+1, err)
		}
		load, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d load: %w", i+1, err)
		}
		offsets = append(offsets, off)
		loads = append(loads, load)
	}
	step := time.Hour
	if len(offsets) >= 2 {
		step = time.Duration((offsets[1] - offsets[0]) * float64(time.Hour))
		if step <= 0 {
			return nil, fmt.Errorf("trace: non-increasing offsets")
		}
	}
	return &Trace{Name: name, Step: step, Loads: loads}, nil
}

// validate checks structural invariants: positive step, at least one
// sample, loads within [0, 100] after normalization tolerance.
func (t *Trace) validate() error {
	if t.Step <= 0 {
		return errors.New("trace: non-positive step")
	}
	if len(t.Loads) == 0 {
		return errors.New("trace: empty")
	}
	for i, l := range t.Loads {
		if l < 0 {
			return fmt.Errorf("trace: negative load %v at sample %d", l, i)
		}
	}
	return nil
}
