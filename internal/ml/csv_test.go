package ml

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

func TestDatasetCSVRoundTrip(t *testing.T) {
	d := sampleDataset(t)
	var buf bytes.Buffer
	if err := d.writeCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := readDatasetCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() || back.NumAttributes() != d.NumAttributes() {
		t.Fatalf("shape %dx%d -> %dx%d", d.Len(), d.NumAttributes(), back.Len(), back.NumAttributes())
	}
	for i := range d.X {
		if back.Y[i] != d.Y[i] {
			t.Fatalf("row %d label %d -> %d", i, d.Y[i], back.Y[i])
		}
		for j := range d.X[i] {
			if back.X[i][j] != d.X[i][j] {
				t.Fatalf("cell (%d,%d): %v -> %v", i, j, d.X[i][j], back.X[i][j])
			}
		}
	}
	for j, name := range d.Attributes {
		if back.Attributes[j] != name {
			t.Fatalf("attribute %d: %q -> %q", j, name, back.Attributes[j])
		}
	}
}

func TestReadDatasetCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"no class column", "a,b\n1,2\n"},
		{"ragged row", "a,class\n1,0\n1,2,3\n"},
		{"bad value", "a,class\nxyz,0\n"},
		{"bad label", "a,class\n1,zero\n"},
	}
	for _, tc := range cases {
		if _, err := readDatasetCSV(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// readDatasetCSV parses a dataset written by WriteCSV: the round-trip
// oracle of the CSV tests.
func readDatasetCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("ml: reading csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("ml: csv has no header")
	}
	header := records[0]
	if len(header) < 2 || header[len(header)-1] != "class" {
		return nil, fmt.Errorf("ml: csv header must end with a class column")
	}
	d := NewDataset(header[:len(header)-1])
	for i, rec := range records[1:] {
		if len(rec) != len(header) {
			return nil, fmt.Errorf("ml: row %d has %d fields, want %d", i+1, len(rec), len(header))
		}
		row := make([]float64, len(rec)-1)
		for j, f := range rec[:len(rec)-1] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("ml: row %d col %d: %w", i+1, j, err)
			}
			row[j] = v
		}
		label, err := strconv.Atoi(rec[len(rec)-1])
		if err != nil {
			return nil, fmt.Errorf("ml: row %d class: %w", i+1, err)
		}
		if err := d.Add(row, label); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// writeCSV serializes the dataset with a header row (attribute names
// plus a trailing "class" column), so profiling datasets can be
// inspected with external tools — the workflow the paper used WEKA
// for.
func (d *Dataset) writeCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append(append([]string(nil), d.Attributes...), "class")
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, row := range d.X {
		rec := make([]string, 0, len(row)+1)
		for _, v := range row {
			rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
		}
		rec = append(rec, strconv.Itoa(d.Y[i]))
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
