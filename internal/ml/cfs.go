package ml

import (
	"errors"
	"math"
)

// CFS implements correlation-based feature selection in the style of
// WEKA's CfsSubsetEval combined with a GreedyStepwise forward search.
// The merit of an attribute subset S of size k is
//
//	merit(S) = k * mean(r_cf) / sqrt(k + k*(k-1) * mean(r_ff))
//
// where r_cf is the feature-class correlation and r_ff the
// feature-feature inter-correlation. Correlations between continuous
// attributes and the discrete class use the symmetric-uncertainty-like
// eta statistic (correlation ratio); between attributes, absolute
// Pearson correlation.

// CFSResult reports the selected attribute subset.
type CFSResult struct {
	// Selected lists the chosen attribute indices in selection order.
	Selected []int
	// Merit is the merit of the final subset.
	Merit float64
}

// cfsMinGain is the minimum merit improvement to accept another
// feature. A near-zero floor would admit two bad kinds of features:
// ones almost perfectly redundant with the current subset (vanishing
// but positive gains), and noise features whose weak spurious class
// correlation still raises the merit slightly when the genuine
// features are strongly inter-correlated. Genuinely complementary
// features gain well above this floor.
const cfsMinGain = 0.02

// CFSSelect runs the greedy forward search and returns the selected
// subset; it stops when merit no longer improves. The dataset must be
// labeled.
func CFSSelect(d *Dataset) (*CFSResult, error) {
	if d.Len() == 0 {
		return nil, errors.New("ml: cannot run CFS on empty dataset")
	}
	numClasses := d.NumClasses()
	if numClasses == 0 {
		return nil, errors.New("ml: dataset has no labels")
	}
	nAttr := d.NumAttributes()

	// Precompute feature-class correlations.
	classCorr := make([]float64, nAttr)
	cols := make([][]float64, nAttr)
	for j := 0; j < nAttr; j++ {
		cols[j] = d.Column(j)
		classCorr[j] = CorrelationRatio(cols[j], d.Y, numClasses)
	}

	// Feature-feature correlations, computed lazily and cached.
	ffCache := make(map[[2]int]float64)
	ff := func(a, b int) float64 {
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		if v, ok := ffCache[key]; ok {
			return v
		}
		v := math.Abs(Pearson(cols[a], cols[b]))
		ffCache[key] = v
		return v
	}

	merit := func(subset []int) float64 {
		k := float64(len(subset))
		if k == 0 {
			return 0
		}
		sumCF := 0.0
		for _, a := range subset {
			sumCF += classCorr[a]
		}
		meanCF := sumCF / k
		meanFF := 0.0
		if len(subset) > 1 {
			sumFF, pairs := 0.0, 0
			for i := 0; i < len(subset); i++ {
				for j := i + 1; j < len(subset); j++ {
					sumFF += ff(subset[i], subset[j])
					pairs++
				}
			}
			meanFF = sumFF / float64(pairs)
		}
		den := math.Sqrt(k + k*(k-1)*meanFF)
		if den == 0 {
			return 0
		}
		return k * meanCF / den
	}

	selected := []int{}
	inSubset := make([]bool, nAttr)
	bestMerit := 0.0

	for {
		bestAttr, bestNew := -1, bestMerit
		for a := 0; a < nAttr; a++ {
			if inSubset[a] {
				continue
			}
			m := merit(append(selected, a))
			if m > bestNew+cfsMinGain {
				bestAttr, bestNew = a, m
			}
		}
		if bestAttr < 0 {
			break
		}
		selected = append(selected, bestAttr)
		inSubset[bestAttr] = true
		bestMerit = bestNew
	}

	if len(selected) == 0 {
		// Degenerate data (no attribute correlates with the class):
		// fall back to the single best attribute so callers always
		// get a non-empty signature.
		best := 0
		for a := 1; a < nAttr; a++ {
			if classCorr[a] > classCorr[best] {
				best = a
			}
		}
		selected = append(selected, best)
		bestMerit = merit(selected)
	}
	return &CFSResult{Selected: selected, Merit: bestMerit}, nil
}

// CorrelationRatio returns eta, the correlation ratio between a
// continuous variable xs and a discrete label vector ys with the given
// number of classes: sqrt(between-class variance / total variance).
// It is 0 when xs is constant and approaches 1 when the label fully
// determines xs.
func CorrelationRatio(xs []float64, ys []int, numClasses int) float64 {
	n := len(xs)
	if n == 0 || n != len(ys) || numClasses == 0 {
		return 0
	}
	total := Variance(xs) * float64(n)
	if total == 0 {
		return 0
	}
	grand := Mean(xs)
	sums := make([]float64, numClasses)
	counts := make([]int, numClasses)
	for i, x := range xs {
		sums[ys[i]] += x
		counts[ys[i]]++
	}
	between := 0.0
	for c := 0; c < numClasses; c++ {
		if counts[c] == 0 {
			continue
		}
		m := sums[c] / float64(counts[c])
		between += float64(counts[c]) * (m - grand) * (m - grand)
	}
	eta2 := between / total
	if eta2 < 0 {
		eta2 = 0
	}
	if eta2 > 1 {
		eta2 = 1
	}
	return math.Sqrt(eta2)
}
