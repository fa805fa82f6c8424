package ml

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
)

// ConfusionMatrix accumulates classification outcomes;
// Counts[actual][predicted] is the number of rows with the given actual
// label that were predicted as the given label.
type ConfusionMatrix struct {
	Counts [][]int
}

// newConfusionMatrix returns a zeroed numClasses x numClasses matrix.
func newConfusionMatrix(numClasses int) *ConfusionMatrix {
	counts := make([][]int, numClasses)
	for i := range counts {
		counts[i] = make([]int, numClasses)
	}
	return &ConfusionMatrix{Counts: counts}
}

// Observe records one (actual, predicted) pair. Out-of-range labels are
// ignored.
func (m *ConfusionMatrix) Observe(actual, predicted int) {
	if actual < 0 || actual >= len(m.Counts) || predicted < 0 || predicted >= len(m.Counts) {
		return
	}
	m.Counts[actual][predicted]++
}

// Total returns the number of observed pairs.
func (m *ConfusionMatrix) Total() int {
	total := 0
	for _, row := range m.Counts {
		for _, c := range row {
			total += c
		}
	}
	return total
}

// Accuracy returns the fraction of correct predictions, or 0 when
// nothing was observed.
func (m *ConfusionMatrix) Accuracy() float64 {
	total := m.Total()
	if total == 0 {
		return 0
	}
	correct := 0
	for i := range m.Counts {
		correct += m.Counts[i][i]
	}
	return float64(correct) / float64(total)
}

// String renders the matrix as a compact table.
func (m *ConfusionMatrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "confusion (rows=actual, cols=predicted), accuracy %.3f\n", m.Accuracy())
	for i, row := range m.Counts {
		fmt.Fprintf(&b, "  %2d:", i)
		for _, c := range row {
			fmt.Fprintf(&b, " %4d", c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TrainFunc builds a classifier from a training set. It abstracts over
// C4.5 and naive Bayes for cross-validation and the classifier ablation.
type TrainFunc func(train *Dataset) (Classifier, error)

// CrossValidate runs k-fold cross-validation and returns the pooled
// confusion matrix. Rows are shuffled with rng before splitting.
func CrossValidate(d *Dataset, folds int, train TrainFunc, rng *rand.Rand) (*ConfusionMatrix, error) {
	if folds < 2 {
		return nil, errors.New("ml: need at least 2 folds")
	}
	if d.Len() < folds {
		return nil, fmt.Errorf("ml: %d rows cannot fill %d folds", d.Len(), folds)
	}
	if rng == nil {
		return nil, errors.New("ml: rng must be set")
	}
	perm := rng.Perm(d.Len())
	matrix := newConfusionMatrix(d.NumClasses())

	for f := 0; f < folds; f++ {
		var trainRows, testRows []int
		for i, r := range perm {
			if i%folds == f {
				testRows = append(testRows, r)
			} else {
				trainRows = append(trainRows, r)
			}
		}
		trainSet, err := d.Subset(trainRows)
		if err != nil {
			return nil, err
		}
		testSet, err := d.Subset(testRows)
		if err != nil {
			return nil, err
		}
		model, err := train(trainSet)
		if err != nil {
			return nil, err
		}
		for i, row := range testSet.X {
			matrix.Observe(testSet.Y[i], model.Predict(row))
		}
	}
	return matrix, nil
}
