package trace

import (
	"bytes"
	"encoding/csv"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

func irregularRecording() *Samples {
	// Deliberately awkward offsets: sub-minute spacing, a 5-hour
	// outage gap, and fractional-hour timestamps that don't divide
	// any step evenly.
	return &Samples{Name: "rec", Points: []Sample{
		{At: 0, Load: 10},
		{At: 37 * time.Minute, Load: 20},
		{At: 61*time.Minute + 13*time.Second, Load: 30},
		{At: 90 * time.Minute, Load: 40},
		// gap: nothing until hour 6.5
		{At: 6*time.Hour + 30*time.Minute, Load: 50},
		{At: 7 * time.Hour, Load: 25},
	}}
}

func TestSamplesValidate(t *testing.T) {
	if err := irregularRecording().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Samples{Name: "b", Points: []Sample{{At: time.Hour, Load: 1}, {At: time.Hour, Load: 2}}}
	if err := bad.Validate(); err == nil {
		t.Error("duplicate offsets should fail validation")
	}
	bad = &Samples{Name: "b", Points: []Sample{{At: 0, Load: -1}}}
	if err := bad.Validate(); err == nil {
		t.Error("negative load should fail validation")
	}
	empty := &Samples{Name: "b"}
	if err := empty.Validate(); err == nil {
		t.Error("empty recording should fail validation")
	}
}

// TestSamplesCSVRoundTrip is the satellite requirement: a replayed
// (not synthesized-regular) recording with irregular timestamps must
// survive writeCSV -> ReadSamplesCSV exactly — offsets and loads
// bit-identical, because the writer uses shortest round-trip floats.
func TestSamplesCSVRoundTrip(t *testing.T) {
	orig := irregularRecording()
	var buf bytes.Buffer
	if err := orig.writeCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSamplesCSV(bytes.NewReader(buf.Bytes()), "rec")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(orig.Points) {
		t.Fatalf("round trip changed sample count: %d -> %d", len(orig.Points), len(back.Points))
	}
	for i := range orig.Points {
		if back.Points[i] != orig.Points[i] {
			t.Errorf("sample %d round-tripped %+v -> %+v", i, orig.Points[i], back.Points[i])
		}
	}
}

// TestSynthClusterCSVRoundTrip extends the round trip to a full
// synthesized cluster recording — hundreds of irregular scrape
// offsets including outage gaps.
func TestSynthClusterCSVRoundTrip(t *testing.T) {
	s := SynthCluster(ClusterConfig{Rng: rand.New(rand.NewSource(9)), Days: 3})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.writeCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSamplesCSV(bytes.NewReader(buf.Bytes()), "cluster")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(s.Points) {
		t.Fatalf("round trip changed sample count: %d -> %d", len(s.Points), len(back.Points))
	}
	for i := range s.Points {
		if back.Points[i] != s.Points[i] {
			t.Fatalf("sample %d round-tripped %+v -> %+v", i, s.Points[i], back.Points[i])
		}
	}
}

func TestReadSamplesCSVRejectsMalformed(t *testing.T) {
	for name, csvText := range map[string]string{
		"no rows":       "offset_hours,load\n",
		"non-numeric":   "offset_hours,load\n0,x\n",
		"non-monotonic": "offset_hours,load\n1,5\n0.5,6\n",
		"wrong fields":  "offset_hours,load\n0,1,2\n",
	} {
		if _, err := ReadSamplesCSV(strings.NewReader(csvText), "bad"); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestResampleZeroOrderHold pins the hold semantics: every resampled
// step takes the most recent recorded value, and a multi-hour outage
// gap holds the last observation instead of interpolating.
func TestResampleZeroOrderHold(t *testing.T) {
	tr, err := irregularRecording().Resample(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Step != time.Hour {
		t.Fatalf("step %v", tr.Step)
	}
	// Span is 7h -> 7 hourly samples.
	if tr.Len() != 7 {
		t.Fatalf("len %d want 7", tr.Len())
	}
	want := []float64{
		10, // hour 0: sample at offset 0
		20, // hour 1: latest sample at or before 1h is 37m
		40, // hour 2: 90m
		40, // hour 3: gap, hold
		40, // hour 4: gap, hold
		40, // hour 5: gap, hold
		40, // hour 6: 6.5h sample not yet reached
	}
	for i, w := range want {
		if tr.Loads[i] != w {
			t.Errorf("hour %d: got %v want %v (ZOH)", i, tr.Loads[i], w)
		}
	}
}

func TestResampleFinerStepCoversGap(t *testing.T) {
	tr, err := irregularRecording().Resample(30 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 14 {
		t.Fatalf("len %d want 14", tr.Len())
	}
	// t=6.5h is index 13 and picks up the post-gap sample exactly.
	if tr.Loads[13] != 50 {
		t.Errorf("post-gap sample: got %v want 50", tr.Loads[13])
	}
	// Inside the gap (t=4h, index 8) the last pre-gap value holds.
	if tr.Loads[8] != 40 {
		t.Errorf("in-gap hold: got %v want 40", tr.Loads[8])
	}
}

func TestResampleValidatesStep(t *testing.T) {
	if _, err := irregularRecording().Resample(0); err == nil {
		t.Error("zero step should error")
	}
}

func TestSynthClusterShape(t *testing.T) {
	s := SynthCluster(ClusterConfig{Rng: rand.New(rand.NewSource(4)), Days: 7})
	if got, want := s.Duration(), 7*24*time.Hour; got < want-time.Hour {
		t.Fatalf("recording spans %v, want ~%v", got, want)
	}
	// Irregular cadence: consecutive intervals differ.
	same := 0
	for i := 2; i < len(s.Points); i++ {
		if s.Points[i].At-s.Points[i-1].At == s.Points[i-1].At-s.Points[i-2].At {
			same++
		}
	}
	if same > len(s.Points)/10 {
		t.Errorf("scrape cadence suspiciously regular: %d/%d equal consecutive intervals", same, len(s.Points))
	}
	// At least one outage gap the ZOH must bridge.
	maxGap := time.Duration(0)
	for i := 1; i < len(s.Points); i++ {
		if g := s.Points[i].At - s.Points[i-1].At; g > maxGap {
			maxGap = g
		}
	}
	if maxGap < time.Hour {
		t.Errorf("no outage gap in recording (max interval %v)", maxGap)
	}
	// Resamples cleanly into a full-length hourly trace.
	tr, err := s.Resample(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 7*24 {
		t.Errorf("hourly resample has %d samples, want %d", tr.Len(), 7*24)
	}
	if err := tr.validate(); err != nil {
		t.Error(err)
	}
	// Determinism per seed.
	again := SynthCluster(ClusterConfig{Rng: rand.New(rand.NewSource(4)), Days: 7})
	if len(again.Points) != len(s.Points) {
		t.Fatalf("same seed produced %d vs %d samples", len(again.Points), len(s.Points))
	}
	for i := range s.Points {
		if s.Points[i] != again.Points[i] {
			t.Fatalf("same seed diverged at sample %d", i)
		}
	}
}

// writeCSV serializes the recording as "offset_hours,load" rows with a
// header. Floats are written in shortest round-trip form so
// ReadSamplesCSV reconstructs the exact recording (irregular offsets
// included).
func (s *Samples) writeCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"offset_hours", "load"}); err != nil {
		return err
	}
	for _, p := range s.Points {
		row := []string{
			strconv.FormatFloat(p.At.Hours(), 'g', -1, 64),
			strconv.FormatFloat(p.Load, 'g', -1, 64),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
