package ml

import (
	"math/rand"
	"testing"
)

func TestC45RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := thresholdDataset(rng, 200)
	tree, err := NewC45(d)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalClassifier(tree)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalClassifier(data)
	if err != nil {
		t.Fatal(err)
	}
	// Identical predictions and confidences on a probe grid.
	for x := 0.0; x <= 10; x += 0.25 {
		row := []float64{x, 0.5}
		l1, c1 := tree.PredictProba(row)
		l2, c2 := back.PredictProba(row)
		if l1 != l2 || c1 != c2 {
			t.Fatalf("x=%v: (%d,%v) vs (%d,%v)", x, l1, c1, l2, c2)
		}
	}
	// Structure preserved.
	bt := back.(*C45Tree)
	if depthOf(bt.root) != depthOf(tree.root) || leavesOf(bt.root) != leavesOf(tree.root) {
		t.Errorf("structure changed: depth %d->%d leaves %d->%d",
			depthOf(tree.root), depthOf(bt.root), leavesOf(tree.root), leavesOf(bt.root))
	}
}

func TestNaiveBayesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := gaussianDataset(rng, 100)
	nb, err := NewNaiveBayes(d)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalClassifier(nb)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalClassifier(data)
	if err != nil {
		t.Fatal(err)
	}
	for x := -6.0; x <= 6; x += 0.5 {
		l1, c1 := nb.PredictProba([]float64{x})
		l2, c2 := back.PredictProba([]float64{x})
		if l1 != l2 || !almostEqual(c1, c2, 1e-9) {
			t.Fatalf("x=%v: (%d,%v) vs (%d,%v)", x, l1, c1, l2, c2)
		}
	}
}

func TestNaiveBayesRoundTripMissingClass(t *testing.T) {
	// A model with an absent class (-Inf prior) must survive JSON.
	d := NewDataset([]string{"x"})
	for i := 0; i < 10; i++ {
		_ = d.Add([]float64{float64(i)}, 0)
		_ = d.Add([]float64{10 + float64(i)}, 2)
	}
	nb, err := NewNaiveBayes(d)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalClassifier(nb)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalClassifier(data)
	if err != nil {
		t.Fatal(err)
	}
	for x := -5.0; x <= 25; x += 1 {
		if back.Predict([]float64{x}) == 1 {
			t.Fatalf("restored model predicted absent class at x=%v", x)
		}
	}
}

func TestUnmarshalClassifierErrors(t *testing.T) {
	if _, err := UnmarshalClassifier([]byte("not json")); err == nil {
		t.Error("garbage should error")
	}
	if _, err := UnmarshalClassifier([]byte(`{"kind":"svm","model":{}}`)); err == nil {
		t.Error("unknown kind should error")
	}
	if _, err := UnmarshalClassifier([]byte(`{"kind":"c45","model":{}}`)); err == nil {
		t.Error("c45 without root should error")
	}
	if _, err := UnmarshalClassifier([]byte(`{"kind":"bayes","model":{"num_classes":0}}`)); err == nil {
		t.Error("bayes without classes should error")
	}
	// Split node missing children.
	bad := `{"kind":"c45","model":{"num_classes":2,"root":{"leaf":false,"attr":0,"threshold":1}}}`
	if _, err := UnmarshalClassifier([]byte(bad)); err == nil {
		t.Error("split without children should error")
	}
	// Leaf with children.
	bad = `{"kind":"c45","model":{"num_classes":2,"root":{"leaf":true,"label":0,"left":{"leaf":true,"label":0}, "right":{"leaf":true,"label":1}}}}`
	if _, err := UnmarshalClassifier([]byte(bad)); err == nil {
		t.Error("leaf with children should error")
	}
	// Bayes with non-positive variance.
	bad = `{"kind":"bayes","model":{"num_classes":1,"num_attrs":1,"priors":[0],"means":[[0]],"variances":[[0]]}}`
	if _, err := UnmarshalClassifier([]byte(bad)); err == nil {
		t.Error("non-positive variance should error")
	}
}

type fakeClassifier struct{}

func (fakeClassifier) Predict([]float64) int                 { return 0 }
func (fakeClassifier) PredictProba([]float64) (int, float64) { return 0, 1 }

func TestMarshalUnknownClassifier(t *testing.T) {
	if _, err := MarshalClassifier(fakeClassifier{}); err == nil {
		t.Error("unknown classifier type should error")
	}
}
