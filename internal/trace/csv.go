package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

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
