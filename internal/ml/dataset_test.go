package ml

import (
	"math"
	"testing"
)

func sampleDataset(t *testing.T) *Dataset {
	t.Helper()
	d := NewDataset([]string{"a", "b", "c"})
	rows := [][]float64{
		{1, 10, 100},
		{2, 20, 200},
		{3, 30, 300},
		{4, 40, 400},
	}
	labels := []int{0, 0, 1, 1}
	for i, r := range rows {
		if err := d.Add(r, labels[i]); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	return d
}

func TestDatasetAddValidatesWidth(t *testing.T) {
	d := NewDataset([]string{"a", "b"})
	if err := d.Add([]float64{1}, 0); err == nil {
		t.Error("Add with wrong width should error")
	}
	if err := d.Add([]float64{1, 2, 3}, 0); err == nil {
		t.Error("Add with wrong width should error")
	}
	if err := d.Add([]float64{1, 2}, 0); err != nil {
		t.Errorf("Add valid row: %v", err)
	}
}

func TestDatasetAddCopiesRow(t *testing.T) {
	d := NewDataset([]string{"a"})
	row := []float64{1}
	if err := d.Add(row, 0); err != nil {
		t.Fatal(err)
	}
	row[0] = 99
	if d.X[0][0] != 1 {
		t.Error("Add must copy the row")
	}
}

func TestDatasetBasics(t *testing.T) {
	d := sampleDataset(t)
	if d.Len() != 4 {
		t.Errorf("Len=%d want 4", d.Len())
	}
	if d.NumAttributes() != 3 {
		t.Errorf("NumAttributes=%d want 3", d.NumAttributes())
	}
	if d.NumClasses() != 2 {
		t.Errorf("NumClasses=%d want 2", d.NumClasses())
	}
	col := d.Column(1)
	want := []float64{10, 20, 30, 40}
	for i := range want {
		if col[i] != want[i] {
			t.Errorf("Column(1)[%d]=%v want %v", i, col[i], want[i])
		}
	}
	counts := d.ClassCounts()
	if counts[0] != 2 || counts[1] != 2 {
		t.Errorf("ClassCounts=%v want [2 2]", counts)
	}
}

func TestDatasetNumClassesEmpty(t *testing.T) {
	d := NewDataset([]string{"a"})
	if d.NumClasses() != 0 {
		t.Errorf("NumClasses of empty=%d want 0", d.NumClasses())
	}
}

func TestDatasetProject(t *testing.T) {
	d := sampleDataset(t)
	p, err := d.Project([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p.Attributes[0] != "c" || p.Attributes[1] != "a" {
		t.Errorf("projected attributes=%v", p.Attributes)
	}
	if p.X[1][0] != 200 || p.X[1][1] != 2 {
		t.Errorf("projected row=%v", p.X[1])
	}
	if p.Y[2] != 1 {
		t.Errorf("projected label=%d want 1", p.Y[2])
	}
	if _, err := d.Project([]int{5}); err == nil {
		t.Error("Project out of range should error")
	}
}

func TestDatasetSubset(t *testing.T) {
	d := sampleDataset(t)
	s, err := d.Subset([]int{3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.X[0][0] != 4 || s.X[1][0] != 1 {
		t.Errorf("Subset rows wrong: %+v", s.X)
	}
	if s.Y[0] != 1 || s.Y[1] != 0 {
		t.Errorf("Subset labels wrong: %v", s.Y)
	}
	if _, err := d.Subset([]int{-1}); err == nil {
		t.Error("Subset negative index should error")
	}
	if _, err := d.Subset([]int{4}); err == nil {
		t.Error("Subset out-of-range index should error")
	}
}

func TestDatasetCloneIsDeep(t *testing.T) {
	d := sampleDataset(t)
	c := d.clone()
	c.X[0][0] = 42
	c.Y[0] = 9
	if d.X[0][0] == 42 || d.Y[0] == 9 {
		t.Error("Clone must be deep")
	}
}

func TestStandardizer(t *testing.T) {
	d := sampleDataset(t)
	s, err := FitStandardizer(d)
	if err != nil {
		t.Fatal(err)
	}
	std := s.TransformDataset(d)
	for j := 0; j < std.NumAttributes(); j++ {
		col := std.Column(j)
		if !almostEqual(Mean(col), 0, 1e-9) {
			t.Errorf("column %d mean=%v want 0", j, Mean(col))
		}
		if !almostEqual(StdDev(col), 1, 1e-9) {
			t.Errorf("column %d std=%v want 1", j, StdDev(col))
		}
	}
}

func TestStandardizerRoundTrip(t *testing.T) {
	d := sampleDataset(t)
	s, err := FitStandardizer(d)
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{2.5, 17, 333}
	back := s.inverse(s.Transform(row))
	for j := range row {
		if !almostEqual(back[j], row[j], 1e-9) {
			t.Errorf("round trip[%d]=%v want %v", j, back[j], row[j])
		}
	}
}

func TestStandardizerConstantColumn(t *testing.T) {
	d := NewDataset([]string{"const", "var"})
	for i := 0; i < 5; i++ {
		if err := d.Add([]float64{7, float64(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	s, err := FitStandardizer(d)
	if err != nil {
		t.Fatal(err)
	}
	out := s.Transform([]float64{7, 2})
	if math.IsNaN(out[0]) || math.IsInf(out[0], 0) {
		t.Errorf("constant column transform produced %v", out[0])
	}
	if out[0] != 0 {
		t.Errorf("constant column should map to 0, got %v", out[0])
	}
}

func TestStandardizerEmpty(t *testing.T) {
	d := NewDataset([]string{"a"})
	if _, err := FitStandardizer(d); err == nil {
		t.Error("FitStandardizer on empty should error")
	}
}

// clone returns a deep copy of the dataset.
func (d *Dataset) clone() *Dataset {
	out := NewDataset(d.Attributes)
	out.ClassNames = append([]string(nil), d.ClassNames...)
	for i, row := range d.X {
		out.X = append(out.X, append([]float64(nil), row...))
		out.Y = append(out.Y, d.Y[i])
	}
	return out
}

// inverse maps a standardized row back to the original space.
func (s *Standardizer) inverse(row []float64) []float64 {
	out := make([]float64, len(row))
	for j := range row {
		out[j] = row[j]*s.Stds[j] + s.Means[j]
	}
	return out
}
