package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// This file preserves the pre-optimization clustering path — naive
// Lloyd iterations over [][]float64 rows, restarts drawn sequentially
// from one RNG, and a full-pairwise silhouette recomputed from scratch
// for every candidate k. It is NOT dead code: it is the oracle the
// tests hold the fast path to — TestSampledSilhouetteSelectsSameK
// compares KMeansAutoReference's chosen k, and the engine tests
// cross-check the dense engine's arithmetic against kmeansOnceRef
// run-for-run. Keep its behavior frozen.

// KMeansReference clusters with the original sequential implementation:
// Lloyd's algorithm with k-means++ seeding, restarts drawn one after
// another from cfg.Rng, best inertia wins. Parallelism and pruning
// options in cfg are ignored.
func KMeansReference(X [][]float64, k int, cfg KMeansConfig) (*KMeansResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, errors.New("ml: K must be positive")
	}
	if len(X) == 0 {
		return nil, errors.New("ml: no rows to cluster")
	}
	if k > len(X) {
		return nil, fmt.Errorf("ml: K=%d exceeds %d rows", k, len(X))
	}
	width := len(X[0])
	for _, row := range X {
		if len(row) != width {
			return nil, errors.New("ml: ragged feature matrix")
		}
	}

	var best *KMeansResult
	for r := 0; r < restarts; r++ {
		res := kmeansOnceRef(X, k, maxIterations, cfg.Rng)
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best, nil
}

func kmeansOnceRef(X [][]float64, k, maxIter int, rng *rand.Rand) *KMeansResult {
	centroids := seedPlusPlusRef(X, k, rng)
	assign := make([]int, len(X))
	for i := range assign {
		assign[i] = -1
	}

	iters := 0
	for ; iters < maxIter; iters++ {
		changed := false
		for i, row := range X {
			c := nearestCentroidRef(row, centroids)
			if c != assign[i] {
				assign[i] = c
				changed = true
			}
		}
		if !changed && iters > 0 {
			break
		}
		recomputeCentroidsRef(X, assign, centroids, rng)
	}

	inertia := 0.0
	for i, row := range X {
		inertia += SquaredDistance(row, centroids[assign[i]])
	}
	return &KMeansResult{
		K:           k,
		Centroids:   centroids,
		Assignments: assign,
		Inertia:     inertia,
		Iterations:  iters,
	}
}

// seedPlusPlusRef picks k initial centroids using the k-means++
// strategy, recomputing every row's nearest-centroid distance from
// scratch for each new centroid (O(n·k²·d); the engine's incremental
// variant is O(n·k·d) and draws the same random values).
func seedPlusPlusRef(X [][]float64, k int, rng *rand.Rand) [][]float64 {
	centroids := make([][]float64, 0, k)
	first := X[rng.Intn(len(X))]
	centroids = append(centroids, append([]float64(nil), first...))

	dist := make([]float64, len(X))
	for len(centroids) < k {
		total := 0.0
		for i, row := range X {
			d := math.Inf(1)
			for _, c := range centroids {
				if sq := SquaredDistance(row, c); sq < d {
					d = sq
				}
			}
			dist[i] = d
			total += d
		}
		var next []float64
		if total == 0 {
			// All points coincide with existing centroids; pick
			// uniformly to keep going.
			next = X[rng.Intn(len(X))]
		} else {
			target := rng.Float64() * total
			acc := 0.0
			idx := len(X) - 1
			for i, d := range dist {
				acc += d
				if acc >= target {
					idx = i
					break
				}
			}
			next = X[idx]
		}
		centroids = append(centroids, append([]float64(nil), next...))
	}
	return centroids
}

func nearestCentroidRef(row []float64, centroids [][]float64) int {
	best, bestDist := 0, math.Inf(1)
	for c, centroid := range centroids {
		if d := SquaredDistance(row, centroid); d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

// recomputeCentroidsRef sets each centroid to the mean of its members.
// An empty cluster is re-seeded with a random row so k is preserved.
func recomputeCentroidsRef(X [][]float64, assign []int, centroids [][]float64, rng *rand.Rand) {
	width := len(X[0])
	counts := make([]int, len(centroids))
	sums := make([][]float64, len(centroids))
	for c := range sums {
		sums[c] = make([]float64, width)
	}
	for i, row := range X {
		c := assign[i]
		counts[c]++
		for j, v := range row {
			sums[c][j] += v
		}
	}
	for c := range centroids {
		if counts[c] == 0 {
			copy(centroids[c], X[rng.Intn(len(X))])
			continue
		}
		for j := range centroids[c] {
			centroids[c][j] = sums[c][j] / float64(counts[c])
		}
	}
}

// KMeansAutoReference is the original k-selection loop: for every k in
// [minK, maxK] it runs KMeansReference and scores the result with the
// exact full-pairwise Silhouette, recomputing all O(n²) distances per
// candidate k. This O(n²·d·(maxK−minK)) silhouette cost is what
// dominated the learning phase at fleet-sized signature sets.
func KMeansAutoReference(X [][]float64, minK, maxK int, cfg KMeansConfig) (*KMeansResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if len(X) == 0 {
		return nil, errors.New("ml: no rows to cluster")
	}
	if minK < 2 {
		minK = 2
	}
	distinct := countDistinctRows(X)
	if maxK > distinct {
		maxK = distinct
	}
	if maxK > len(X) {
		maxK = len(X)
	}
	if maxK < minK {
		// Degenerate data: everything identical. One cluster.
		return KMeansReference(X, 1, cfg)
	}

	var best *KMeansResult
	bestScore := math.Inf(-1)
	for k := minK; k <= maxK; k++ {
		res, err := KMeansReference(X, k, cfg)
		if err != nil {
			return nil, err
		}
		score := Silhouette(X, res.Assignments, k)
		if score > bestScore {
			best, bestScore = res, score
		}
	}
	return best, nil
}
