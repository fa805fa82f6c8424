package ml

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// gaussianDataset: two classes at means -3 and +3 with unit variance.
func gaussianDataset(rng *rand.Rand, perClass int) *Dataset {
	d := NewDataset([]string{"x"})
	for i := 0; i < perClass; i++ {
		_ = d.Add([]float64{-3 + rng.NormFloat64()}, 0)
		_ = d.Add([]float64{3 + rng.NormFloat64()}, 1)
	}
	return d
}

func TestNaiveBayesSeparatesGaussians(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := gaussianDataset(rng, 100)
	nb, err := NewNaiveBayes(d)
	if err != nil {
		t.Fatal(err)
	}
	if nb.numClasses != 2 {
		t.Fatalf("NumClasses=%d want 2", nb.numClasses)
	}
	if got := nb.Predict([]float64{-3}); got != 0 {
		t.Errorf("Predict(-3)=%d want 0", got)
	}
	if got := nb.Predict([]float64{3}); got != 1 {
		t.Errorf("Predict(3)=%d want 1", got)
	}
	_, conf := nb.PredictProba([]float64{-5})
	if conf < 0.99 {
		t.Errorf("confidence far from boundary=%v want > 0.99", conf)
	}
	_, mid := nb.PredictProba([]float64{0})
	if mid > 0.95 {
		t.Errorf("confidence at boundary=%v want modest", mid)
	}
}

func TestNaiveBayesMultiAttribute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDataset([]string{"a", "b"})
	for i := 0; i < 150; i++ {
		// Class determined jointly by both attributes.
		d0 := []float64{rng.NormFloat64(), 5 + rng.NormFloat64()}
		d1 := []float64{5 + rng.NormFloat64(), rng.NormFloat64()}
		_ = d.Add(d0, 0)
		_ = d.Add(d1, 1)
	}
	nb, err := NewNaiveBayes(d)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < 100; i++ {
		if nb.Predict([]float64{rng.NormFloat64(), 5 + rng.NormFloat64()}) == 0 {
			correct++
		}
		if nb.Predict([]float64{5 + rng.NormFloat64(), rng.NormFloat64()}) == 1 {
			correct++
		}
	}
	if correct < 190 {
		t.Errorf("accuracy %d/200, want >= 190", correct)
	}
}

func TestNaiveBayesPriors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Heavily imbalanced overlapping data: prior should dominate at
	// the midpoint.
	d := NewDataset([]string{"x"})
	for i := 0; i < 95; i++ {
		_ = d.Add([]float64{rng.NormFloat64()}, 0)
	}
	for i := 0; i < 5; i++ {
		_ = d.Add([]float64{rng.NormFloat64()}, 1)
	}
	nb, err := NewNaiveBayes(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := nb.Predict([]float64{0}); got != 0 {
		t.Errorf("imbalanced prior: Predict(0)=%d want 0", got)
	}
}

func TestNaiveBayesConstantAttribute(t *testing.T) {
	d := NewDataset([]string{"const", "x"})
	_ = d.Add([]float64{1, -2}, 0)
	_ = d.Add([]float64{1, -2.5}, 0)
	_ = d.Add([]float64{1, 2}, 1)
	_ = d.Add([]float64{1, 2.5}, 1)
	nb, err := NewNaiveBayes(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := nb.Predict([]float64{1, -2.2}); got != 0 {
		t.Errorf("Predict=%d want 0", got)
	}
	if got := nb.Predict([]float64{1, 2.2}); got != 1 {
		t.Errorf("Predict=%d want 1", got)
	}
}

func TestNaiveBayesMissingClass(t *testing.T) {
	// Labels 0 and 2 present, 1 absent: class 1 must never win.
	d := NewDataset([]string{"x"})
	for i := 0; i < 20; i++ {
		_ = d.Add([]float64{float64(i % 3)}, 0)
		_ = d.Add([]float64{10 + float64(i%3)}, 2)
	}
	nb, err := NewNaiveBayes(d)
	if err != nil {
		t.Fatal(err)
	}
	for x := -5.0; x <= 15; x += 0.5 {
		if nb.Predict([]float64{x}) == 1 {
			t.Fatalf("predicted absent class 1 at x=%v", x)
		}
	}
}

func TestNaiveBayesEmpty(t *testing.T) {
	d := NewDataset([]string{"x"})
	if _, err := NewNaiveBayes(d); err == nil {
		t.Error("empty dataset should error")
	}
}

func TestNaiveBayesConfidenceInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := gaussianDataset(rng, 50)
	nb, err := NewNaiveBayes(d)
	if err != nil {
		t.Fatal(err)
	}
	f := func(x float64) bool {
		if x != x || x > 1e6 || x < -1e6 { // NaN / huge guard
			return true
		}
		_, conf := nb.PredictProba([]float64{x})
		return conf >= 0 && conf <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
