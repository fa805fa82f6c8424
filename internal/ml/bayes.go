package ml

import (
	"errors"
	"math"
)

// NaiveBayes is a Gaussian naive Bayes classifier: each attribute is
// modeled per class as an independent normal distribution. The paper
// reports that "both Bayesian models and decision trees work well" for
// the network services it considers; this is the Bayesian option.
type NaiveBayes struct {
	numClasses int
	numAttrs   int
	priors     []float64   // log prior per class
	means      [][]float64 // [class][attr]
	variances  [][]float64 // [class][attr]
}

// minVariance keeps likelihoods finite for constant attributes.
const minVariance = 1e-9

// NewNaiveBayes trains a Gaussian naive Bayes model on a labeled
// dataset. Classes absent from the training data receive a -Inf log
// prior and are never predicted.
func NewNaiveBayes(d *Dataset) (*NaiveBayes, error) {
	if d.Len() == 0 {
		return nil, errors.New("ml: cannot train naive Bayes on empty dataset")
	}
	numClasses := d.NumClasses()
	if numClasses == 0 {
		return nil, errors.New("ml: dataset has no labels")
	}
	nb := &NaiveBayes{
		numClasses: numClasses,
		numAttrs:   d.NumAttributes(),
		priors:     make([]float64, numClasses),
		means:      make([][]float64, numClasses),
		variances:  make([][]float64, numClasses),
	}

	counts := d.ClassCounts()
	byClass := make([][][]float64, numClasses)
	for i, row := range d.X {
		byClass[d.Y[i]] = append(byClass[d.Y[i]], row)
	}

	for c := 0; c < numClasses; c++ {
		nb.means[c] = make([]float64, nb.numAttrs)
		nb.variances[c] = make([]float64, nb.numAttrs)
		if counts[c] == 0 {
			nb.priors[c] = math.Inf(-1)
			for j := range nb.variances[c] {
				nb.variances[c][j] = minVariance
			}
			continue
		}
		nb.priors[c] = math.Log(float64(counts[c]) / float64(d.Len()))
		for j := 0; j < nb.numAttrs; j++ {
			col := make([]float64, len(byClass[c]))
			for i, row := range byClass[c] {
				col[i] = row[j]
			}
			nb.means[c][j] = Mean(col)
			v := Variance(col)
			if v < minVariance {
				v = minVariance
			}
			nb.variances[c][j] = v
		}
	}
	return nb, nil
}

// logLikelihoods returns the unnormalized class log posteriors for row.
func (nb *NaiveBayes) logLikelihoods(row []float64) []float64 {
	out := make([]float64, nb.numClasses)
	for c := 0; c < nb.numClasses; c++ {
		ll := nb.priors[c]
		if math.IsInf(ll, -1) {
			out[c] = ll
			continue
		}
		for j := 0; j < nb.numAttrs && j < len(row); j++ {
			v := nb.variances[c][j]
			d := row[j] - nb.means[c][j]
			ll += -0.5*math.Log(2*math.Pi*v) - d*d/(2*v)
		}
		out[c] = ll
	}
	return out
}

// Predict returns the maximum a posteriori class label for row.
func (nb *NaiveBayes) Predict(row []float64) int {
	label, _ := nb.PredictProba(row)
	return label
}

// PredictProba returns the MAP label and its normalized posterior
// probability.
func (nb *NaiveBayes) PredictProba(row []float64) (int, float64) {
	lls := nb.logLikelihoods(row)
	best, bestLL := 0, math.Inf(-1)
	for c, ll := range lls {
		if ll > bestLL {
			best, bestLL = c, ll
		}
	}
	// Normalize with the log-sum-exp trick.
	sum := 0.0
	for _, ll := range lls {
		if !math.IsInf(ll, -1) {
			sum += math.Exp(ll - bestLL)
		}
	}
	if sum == 0 {
		return best, 0
	}
	return best, 1 / sum
}

var _ Classifier = (*NaiveBayes)(nil)
var _ Classifier = (*C45Tree)(nil)
