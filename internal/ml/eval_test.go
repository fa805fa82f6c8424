package ml

import (
	"math/rand"
	"strings"
	"testing"
)

func TestConfusionMatrix(t *testing.T) {
	m := newConfusionMatrix(2)
	m.Observe(0, 0)
	m.Observe(0, 0)
	m.Observe(0, 1)
	m.Observe(1, 1)
	if m.Total() != 4 {
		t.Errorf("Total=%d want 4", m.Total())
	}
	if !almostEqual(m.Accuracy(), 0.75, 1e-12) {
		t.Errorf("Accuracy=%v want 0.75", m.Accuracy())
	}
	// Out-of-range observations are ignored.
	m.Observe(-1, 0)
	m.Observe(0, 5)
	if m.Total() != 4 {
		t.Errorf("Total after bad observes=%d want 4", m.Total())
	}
	if !strings.Contains(m.String(), "accuracy") {
		t.Error("String should mention accuracy")
	}
}

func TestConfusionMatrixEmptyAccuracy(t *testing.T) {
	m := newConfusionMatrix(3)
	if m.Accuracy() != 0 {
		t.Errorf("empty accuracy=%v want 0", m.Accuracy())
	}
}

func TestCrossValidateC45(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := thresholdDataset(rng, 200)
	cm, err := CrossValidate(d, 5, func(train *Dataset) (Classifier, error) {
		return NewC45(train)
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Total() != 200 {
		t.Errorf("CV total=%d want 200 (every row tested once)", cm.Total())
	}
	if cm.Accuracy() < 0.9 {
		t.Errorf("CV accuracy=%v want >= 0.9", cm.Accuracy())
	}
}

func TestCrossValidateNaiveBayes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := gaussianDataset(rng, 100)
	cm, err := CrossValidate(d, 4, func(train *Dataset) (Classifier, error) {
		return NewNaiveBayes(train)
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Accuracy() < 0.95 {
		t.Errorf("CV accuracy=%v want >= 0.95", cm.Accuracy())
	}
}

func TestCrossValidateValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := thresholdDataset(rng, 10)
	train := func(tr *Dataset) (Classifier, error) { return NewC45(tr) }
	if _, err := CrossValidate(d, 1, train, rng); err == nil {
		t.Error("folds=1 should error")
	}
	if _, err := CrossValidate(d, 20, train, rng); err == nil {
		t.Error("more folds than rows should error")
	}
	if _, err := CrossValidate(d, 2, train, nil); err == nil {
		t.Error("nil rng should error")
	}
}
