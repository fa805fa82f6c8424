package ml

import (
	"encoding/csv"
	"io"
	"strconv"
)

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
