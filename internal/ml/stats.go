// Package ml implements the machine-learning substrate DejaVu relies on:
// dataset handling, descriptive statistics, k-means clustering with
// automatic selection of the number of clusters, a C4.5-style decision
// tree, a Gaussian naive Bayes classifier, correlation-based feature
// selection (CFS) with greedy stepwise search, and evaluation helpers.
//
// The paper uses the WEKA toolkit (SimpleKMeans, J48, NaiveBayes,
// CfsSubsetEval + GreedyStepwise); this package re-implements the same
// algorithms from scratch on the standard library so the repository has
// no external dependencies.
//
// # Clustering engine
//
// The clustering path is built for fleet-scale signature sets. KMeans
// and KMeansAuto flatten their input into a dense row-major Matrix
// with precomputed squared norms, seed with k-means++ (Arthur &
// Vassilvitskii, SODA 2007) maintained incrementally in O(n·k·d), and
// iterate Lloyd's algorithm with Hamerly's distance-bound pruning
// (Hamerly, SDM 2010) — an exact acceleration whose results are
// bit-identical to the naive scans (KMeansConfig.Naive toggles the
// cross-checked fallback). Restarts and the candidate-k sweep fan out
// on the bounded worker pool shared with the fleet control plane
// (internal/parallel), with per-worker scratch reuse; per-run derived
// RNG seeds keep results deterministic regardless of worker count.
// KMeansAuto scores candidates with the exact silhouette (over a
// pairwise distance matrix hoisted across the k sweep) on small
// datasets and a seeded uniform-sample estimator above
// silhouetteExactThreshold rows. The pre-optimization path is
// preserved as KMeansReference / KMeansAutoReference as the tests'
// oracle; property tests in kmeans_prop_test.go pin the equivalences.
package ml

import "math"

// Mean returns the arithmetic mean of xs. It returns 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (divide by n).
// It returns 0 for inputs with fewer than one element.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Covariance returns the population covariance of xs and ys, which must
// have equal length.
func Covariance(xs, ys []float64) float64 {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += (xs[i] - mx) * (ys[i] - my)
	}
	return sum / float64(n)
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// If either vector is constant the correlation is defined as 0.
func Pearson(xs, ys []float64) float64 {
	sx, sy := StdDev(xs), StdDev(ys)
	if sx == 0 || sy == 0 {
		return 0
	}
	return Covariance(xs, ys) / (sx * sy)
}

// EntropyOf returns the Shannon entropy (bits) of a discrete label
// distribution given as counts.
func EntropyOf(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// EuclideanDistance returns the L2 distance between two equal-length
// vectors.
func EuclideanDistance(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// SquaredDistance returns the squared L2 distance between a and b.
func SquaredDistance(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}
