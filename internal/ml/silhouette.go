package ml

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"repro/internal/parallel"
)

// Silhouette returns the mean silhouette coefficient of a clustering, a
// value in [-1, 1]; higher is better. Rows in singleton clusters get
// silhouette 0, matching the common convention.
//
// This is the exact estimator: it evaluates all O(n²) pairwise
// distances. KMeansAuto only calls it (via a distance matrix hoisted
// across the k sweep) for datasets up to silhouetteExactThreshold
// rows; above that it switches to the sampled estimator, which
// SilhouetteEstimate exposes directly.
func Silhouette(X [][]float64, assign []int, k int) float64 {
	n := len(X)
	if n == 0 || k <= 1 {
		return 0
	}
	clusterRows := make([][]int, k)
	for i, c := range assign {
		clusterRows[c] = append(clusterRows[c], i)
	}
	total, counted := 0.0, 0
	for i := range X {
		own := assign[i]
		if len(clusterRows[own]) <= 1 {
			counted++
			continue // silhouette 0
		}
		a := 0.0
		for _, j := range clusterRows[own] {
			if j != i {
				a += EuclideanDistance(X[i], X[j])
			}
		}
		a /= float64(len(clusterRows[own]) - 1)

		b := math.Inf(1)
		for c := 0; c < k; c++ {
			if c == own || len(clusterRows[c]) == 0 {
				continue
			}
			d := 0.0
			for _, j := range clusterRows[c] {
				d += EuclideanDistance(X[i], X[j])
			}
			d /= float64(len(clusterRows[c]))
			if d < b {
				b = d
			}
		}
		if math.IsInf(b, 1) {
			counted++
			continue
		}
		den := math.Max(a, b)
		if den > 0 {
			total += (b - a) / den
		}
		counted++
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

// pairwiseDistances returns the flat n×n Euclidean distance matrix of
// m's rows. Computing it once and sharing it across every candidate k
// of a KMeansAuto sweep is what removes the per-k full-pairwise
// recomputation the reference path pays.
func pairwiseDistances(m *Matrix) []float64 {
	n := m.Rows
	D := make([]float64, n*n)
	for i := 0; i < n; i++ {
		ri := m.Row(i)
		for j := i + 1; j < n; j++ {
			d := EuclideanDistance(ri, m.Row(j))
			D[i*n+j] = d
			D[j*n+i] = d
		}
	}
	return D
}

// silhouetteFromDists is Silhouette evaluated against a precomputed
// distance matrix. It accumulates distances in the same order as
// Silhouette, so for D = pairwiseDistances(m) the two are
// bit-identical.
func silhouetteFromDists(D []float64, n int, assign []int, k int) float64 {
	if n == 0 || k <= 1 {
		return 0
	}
	clusterRows := make([][]int, k)
	for i := 0; i < n; i++ {
		c := assign[i]
		clusterRows[c] = append(clusterRows[c], i)
	}
	total, counted := 0.0, 0
	for i := 0; i < n; i++ {
		own := assign[i]
		if len(clusterRows[own]) <= 1 {
			counted++
			continue // silhouette 0
		}
		a := 0.0
		for _, j := range clusterRows[own] {
			if j != i {
				a += D[i*n+j]
			}
		}
		a /= float64(len(clusterRows[own]) - 1)

		b := math.Inf(1)
		for c := 0; c < k; c++ {
			if c == own || len(clusterRows[c]) == 0 {
				continue
			}
			d := 0.0
			for _, j := range clusterRows[c] {
				d += D[i*n+j]
			}
			d /= float64(len(clusterRows[c]))
			if d < b {
				b = d
			}
		}
		if math.IsInf(b, 1) {
			counted++
			continue
		}
		den := math.Max(a, b)
		if den > 0 {
			total += (b - a) / den
		}
		counted++
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

// sampleIndices draws size distinct row indices uniformly without
// replacement and returns them sorted (ascending index order is
// mildly cache-friendlier when walking the matrix).
func sampleIndices(n, size int, rng *rand.Rand) []int {
	if size >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	idx := rng.Perm(n)[:size]
	sort.Ints(idx)
	return idx
}

// silhouetteSweep estimates the mean silhouette coefficient of every
// clustering in perK from one uniform sample of rows: each sampled
// row's a(i) and b(i) are computed exactly against the full dataset (so
// only the outer mean is approximated), at O(|sample|·n·d) instead of
// O(n²·d). Distances use the precomputed-norm dot-product form; the
// estimator is already statistical, so the expansion's rounding is
// immaterial.
//
// A sampled row's distances to the n rows do not depend on the
// clustering, so they are computed once — sample rows fan out over
// workers, each with one n-wide scratch row — and every clustering only
// buckets them by its own assignment, in ascending row order. A
// clustering's score is therefore the same float whether it is scored
// alone or in a sweep, at any worker count.
func silhouetteSweep(m *Matrix, perK []*KMeansResult, sample []int, workers int) []float64 {
	n := m.Rows
	scores := make([]float64, len(perK))
	if n == 0 || len(sample) == 0 {
		return scores
	}
	maxK := 0
	sizes := make([][]int, len(perK))
	for ki, res := range perK {
		sizes[ki] = make([]int, res.K)
		for _, c := range res.Assignments {
			sizes[ki][c]++
		}
		if res.K > maxK {
			maxK = res.K
		}
	}

	// coeff[ki·|sample|+si] is sampled row si's silhouette under
	// clustering ki.
	coeff := make([]float64, len(perK)*len(sample))
	workers = resolveWorkers(workers, len(sample))
	scratch := make([][]float64, workers) // per worker: n distances, then maxK cluster sums
	parallel.DoWorkers(workers, len(sample), func(w, si int) {
		if scratch[w] == nil {
			scratch[w] = make([]float64, n+maxK)
		}
		dist, sums := scratch[w][:n], scratch[w][n:]
		i := sample[si]
		ri, ni := m.Row(i), m.Norms[i]
		for j := range dist {
			dist[j] = normDistance(ri, m.Row(j), ni, m.Norms[j])
		}
		dist[i] = 0 // a row is no neighbour of itself: +0 leaves its cluster's sum as it is
		for ki, res := range perK {
			coeff[ki*len(sample)+si] = silhouetteOf(dist, res.Assignments, sizes[ki], res.Assignments[i], sums[:res.K])
		}
	})

	for ki := range perK {
		total := 0.0
		for _, s := range coeff[ki*len(sample) : (ki+1)*len(sample)] {
			total += s
		}
		scores[ki] = total / float64(len(sample))
	}
	return scores
}

// silhouetteOf is one row's silhouette coefficient given its distance
// to every row (0 to itself), the assignment, the cluster sizes and the
// row's own cluster. Rows in singleton clusters, and rows with no other
// non-empty cluster, score 0.
func silhouetteOf(dist []float64, assign, size []int, own int, sums []float64) float64 {
	if size[own] <= 1 {
		return 0
	}
	for c := range sums {
		sums[c] = 0
	}
	for j, d := range dist {
		sums[assign[j]] += d
	}
	a := sums[own] / float64(size[own]-1)
	b := math.Inf(1)
	for c, sum := range sums {
		if c == own || size[c] == 0 {
			continue
		}
		if d := sum / float64(size[c]); d < b {
			b = d
		}
	}
	if den := math.Max(a, b); !math.IsInf(b, 1) && den > 0 {
		return (b - a) / den
	}
	return 0
}

// SilhouetteConfig controls SilhouetteEstimate.
type SilhouetteConfig struct {
	// SampleSize is how many rows the estimator averages over
	// (default 256).
	SampleSize int
	// ExactThreshold: datasets with at most this many rows are scored
	// exactly (default 512).
	ExactThreshold int
	// Rng seeds the uniform sample; required when the sampled path
	// triggers.
	Rng *rand.Rand
}

// SilhouetteEstimate scores a clustering with the same
// exact-below-threshold / sampled-above policy KMeansAuto applies:
// small datasets get the exact full-pairwise silhouette, large ones
// the seeded uniform-sample estimator.
func SilhouetteEstimate(X [][]float64, assign []int, k int, cfg SilhouetteConfig) (float64, error) {
	if cfg.SampleSize <= 0 {
		cfg.SampleSize = 256
	}
	if cfg.ExactThreshold <= 0 {
		cfg.ExactThreshold = 512
	}
	if len(X) <= cfg.ExactThreshold || cfg.SampleSize >= len(X) {
		return Silhouette(X, assign, k), nil
	}
	if cfg.Rng == nil {
		return 0, errors.New("ml: SilhouetteConfig.Rng must be set for sampled estimation")
	}
	m, err := NewMatrix(X)
	if err != nil {
		return 0, err
	}
	sample := sampleIndices(m.Rows, cfg.SampleSize, cfg.Rng)
	one := []*KMeansResult{{K: k, Assignments: assign}}
	return silhouetteSweep(m, one, sample, 0)[0], nil
}
