package ml

import (
	"errors"
	"fmt"
	"math"
)

// Dataset holds a numeric feature matrix with named attributes and an
// optional class label per row. It is the common currency between the
// profiler (which produces metric vectors), feature selection,
// clustering, and the classifiers.
type Dataset struct {
	// Attributes names the columns of X.
	Attributes []string
	// X is the row-major feature matrix; every row has
	// len(Attributes) columns.
	X [][]float64
	// Y holds the class label of each row; empty for unlabeled data.
	Y []int
	// ClassNames optionally names the label values; ClassNames[k] is
	// the human-readable name of label k.
	ClassNames []string
}

// NewDataset returns an empty dataset over the given attributes.
func NewDataset(attributes []string) *Dataset {
	return &Dataset{Attributes: append([]string(nil), attributes...)}
}

// Add appends a row with an optional label. It returns an error when the
// row width does not match the attribute count.
func (d *Dataset) Add(row []float64, label int) error {
	if len(row) != len(d.Attributes) {
		return fmt.Errorf("ml: row has %d values, want %d", len(row), len(d.Attributes))
	}
	d.X = append(d.X, append([]float64(nil), row...))
	d.Y = append(d.Y, label)
	return nil
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return len(d.X) }

// NumAttributes returns the number of columns.
func (d *Dataset) NumAttributes() int { return len(d.Attributes) }

// NumClasses returns 1 + the largest label present, or 0 when the
// dataset is unlabeled or empty.
func (d *Dataset) NumClasses() int {
	max := -1
	for i := range d.X {
		if i < len(d.Y) && d.Y[i] > max {
			max = d.Y[i]
		}
	}
	return max + 1
}

// Column returns a copy of column j.
func (d *Dataset) Column(j int) []float64 {
	col := make([]float64, len(d.X))
	for i, row := range d.X {
		col[i] = row[j]
	}
	return col
}

// ClassCounts returns the number of rows per label, indexed by label.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.NumClasses())
	for i := range d.X {
		counts[d.Y[i]]++
	}
	return counts
}

// Project returns a new dataset containing only the selected attribute
// indices (in the given order). Labels are preserved.
func (d *Dataset) Project(attrs []int) (*Dataset, error) {
	names := make([]string, len(attrs))
	for i, a := range attrs {
		if a < 0 || a >= len(d.Attributes) {
			return nil, fmt.Errorf("ml: attribute index %d out of range", a)
		}
		names[i] = d.Attributes[a]
	}
	out := NewDataset(names)
	out.ClassNames = append([]string(nil), d.ClassNames...)
	for i, row := range d.X {
		projected := make([]float64, len(attrs))
		for k, a := range attrs {
			projected[k] = row[a]
		}
		out.X = append(out.X, projected)
		out.Y = append(out.Y, d.Y[i])
	}
	return out, nil
}

// Subset returns a dataset containing the rows whose indices are listed.
func (d *Dataset) Subset(rows []int) (*Dataset, error) {
	out := NewDataset(d.Attributes)
	out.ClassNames = append([]string(nil), d.ClassNames...)
	for _, r := range rows {
		if r < 0 || r >= len(d.X) {
			return nil, fmt.Errorf("ml: row index %d out of range", r)
		}
		out.X = append(out.X, append([]float64(nil), d.X[r]...))
		out.Y = append(out.Y, d.Y[r])
	}
	return out, nil
}

// Standardizer rescales features to zero mean and unit variance. The
// zero value is unusable; call FitStandardizer first.
type Standardizer struct {
	Means []float64
	Stds  []float64
}

// FitStandardizer computes per-column means and standard deviations.
// Columns with zero variance get std 1 so transforming them is a no-op
// shift.
func FitStandardizer(d *Dataset) (*Standardizer, error) {
	if d.Len() == 0 {
		return nil, errors.New("ml: cannot fit standardizer on empty dataset")
	}
	s := &Standardizer{
		Means: make([]float64, d.NumAttributes()),
		Stds:  make([]float64, d.NumAttributes()),
	}
	for j := 0; j < d.NumAttributes(); j++ {
		col := d.Column(j)
		s.Means[j] = Mean(col)
		sd := StdDev(col)
		if sd == 0 || math.IsNaN(sd) {
			sd = 1
		}
		s.Stds[j] = sd
	}
	return s, nil
}

// Transform returns a standardized copy of row.
func (s *Standardizer) Transform(row []float64) []float64 {
	out := make([]float64, len(row))
	s.TransformInto(out, row)
	return out
}

// TransformInto standardizes row into dst, which must have the same
// length; the allocation-free path for hot classification loops.
func (s *Standardizer) TransformInto(dst, row []float64) {
	for j := range row {
		dst[j] = (row[j] - s.Means[j]) / s.Stds[j]
	}
}

// TransformDataset returns a standardized copy of d.
func (s *Standardizer) TransformDataset(d *Dataset) *Dataset {
	out := NewDataset(d.Attributes)
	out.ClassNames = append([]string(nil), d.ClassNames...)
	for i, row := range d.X {
		out.X = append(out.X, s.Transform(row))
		out.Y = append(out.Y, d.Y[i])
	}
	return out
}

// MeanNormalize returns a copy of d with every column divided by its
// mean (columns with mean 0 are left untouched). Unlike
// standardization, this preserves each attribute's coefficient of
// variation: attributes that barely vary relative to their magnitude —
// e.g. hardware counters with a constant background rate plus
// measurement noise — contribute almost nothing to distances, while
// attributes that genuinely track the workload keep their relative
// swing. This is the right scaling for clustering *before* feature
// selection has removed the uninformative attributes.
func MeanNormalize(d *Dataset) *Dataset {
	out := NewDataset(d.Attributes)
	out.ClassNames = append([]string(nil), d.ClassNames...)
	means := make([]float64, d.NumAttributes())
	for j := range means {
		means[j] = Mean(d.Column(j))
	}
	for i, row := range d.X {
		scaled := make([]float64, len(row))
		for j, v := range row {
			if means[j] != 0 {
				scaled[j] = v / means[j]
			} else {
				scaled[j] = v
			}
		}
		out.X = append(out.X, scaled)
		out.Y = append(out.Y, d.Y[i])
	}
	return out
}
