package ml

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"repro/internal/parallel"
)

// KMeansResult is the outcome of a k-means run.
type KMeansResult struct {
	// K is the number of clusters.
	K int
	// Centroids holds one centroid per cluster.
	Centroids [][]float64
	// Assignments maps each input row to its cluster index.
	Assignments []int
	// Inertia is the total within-cluster sum of squared distances.
	Inertia float64
	// Iterations is the number of Lloyd iterations until convergence.
	Iterations int
}

// KMeansConfig controls the clustering run.
type KMeansConfig struct {
	// Rng supplies randomness; required. It is consumed only to derive
	// one seed per clustering run (plus one for the silhouette sampler
	// in KMeansAuto), so results are deterministic for a given Rng
	// state regardless of Workers.
	Rng *rand.Rand
	// Workers bounds how many clustering runs (restarts × candidate
	// k) execute concurrently on the shared internal/parallel pool;
	// 0 means GOMAXPROCS. Each worker keeps one scratch buffer set
	// for all the runs it claims.
	Workers int
	// Naive disables the Hamerly bound-pruned Lloyd iterations and
	// falls back to exhaustive nearest-centroid scans. Both paths
	// produce bit-identical assignments, centroids, inertia, and
	// iteration counts (pinned by TestPrunedMatchesNaive); the flag
	// exists for that cross-check and as an escape hatch.
	Naive bool
}

const (
	// maxIterations bounds Lloyd iterations.
	maxIterations = 100
	// restarts is the number of random restarts per k; the best
	// (lowest inertia) run wins.
	restarts = 5
	// silhouetteSample is the sample size of the silhouette estimator
	// KMeansAuto scores candidate k with on large datasets.
	silhouetteSample = 256
	// silhouetteExactThreshold is the dataset size at or below which
	// KMeansAuto uses the exact full-pairwise silhouette instead of
	// the sampled estimator. The exact path computes the O(n²)
	// distance matrix once and reuses it across the whole k sweep.
	silhouetteExactThreshold = 512
)

func (c *KMeansConfig) defaults() error {
	if c.Rng == nil {
		return errors.New("ml: KMeansConfig.Rng must be set")
	}
	return nil
}

// resolveWorkers clamps the configured worker count to the number of
// independent work items.
func resolveWorkers(workers, items int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > items {
		workers = items
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// KMeans clusters the rows of X into k clusters using Lloyd's
// algorithm with k-means++ seeding and several random restarts. The
// paper's "simple k means" corresponds to a single run; restarts only
// improve stability.
//
// Restarts run concurrently on the shared worker pool: each draws its
// own seed from cfg.Rng up front and iterates on the flattened
// row-major copy of X with Hamerly-style distance-bound pruning (see
// kmEngine). The best (lowest-inertia) restart wins, with ties broken
// by restart index so the outcome is independent of scheduling.
func KMeans(X [][]float64, k int, cfg KMeansConfig) (*KMeansResult, error) {
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
	m, err := NewMatrix(X)
	if err != nil {
		return nil, err
	}
	results := runGrid(m, []int{k}, cfg)
	return results[0], nil
}

// runGrid executes restarts clustering runs for every k in ks on the
// worker pool and returns the best run per k. Seeds are drawn from
// cfg.Rng in (k, restart) order before any run starts.
func runGrid(m *Matrix, ks []int, cfg KMeansConfig) []*KMeansResult {
	runs := len(ks) * restarts
	seeds := make([]int64, runs)
	for i := range seeds {
		seeds[i] = cfg.Rng.Int63()
	}
	results := make([]*KMeansResult, runs)
	workers := resolveWorkers(cfg.Workers, runs)
	engines := make([]*kmEngine, workers)
	parallel.DoWorkers(workers, runs, func(w, i int) {
		e := engines[w]
		if e == nil {
			e = newKMEngine(m)
			engines[w] = e
		}
		k := ks[i/restarts]
		rng := rand.New(rand.NewSource(seeds[i]))
		results[i] = e.run(k, maxIterations, rng, !cfg.Naive)
	})
	best := make([]*KMeansResult, len(ks))
	for i, res := range results {
		ki := i / restarts
		if best[ki] == nil || res.Inertia < best[ki].Inertia {
			best[ki] = res
		}
	}
	return best
}

// KMeansAuto runs k-means for every k in [minK, maxK] and returns the
// clustering with the best silhouette score. This realizes the paper's
// "the framework can automatically determine the number of classes".
// minK is raised to 2 and maxK clamped to the number of distinct rows;
// a range left empty by the caller is an error, one left empty by the
// clamp yields the single cluster the data has.
//
// All restarts of all candidate k fan out together on the worker
// pool. Small datasets (≤ silhouetteExactThreshold rows) are
// scored with the exact silhouette over a pairwise distance matrix
// computed once and shared by the whole k sweep; larger ones use the
// seeded uniform-sample estimator with one common sample across k, so
// candidate scores stay comparable.
func KMeansAuto(X [][]float64, minK, maxK int, cfg KMeansConfig) (*KMeansResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if len(X) == 0 {
		return nil, errors.New("ml: no rows to cluster")
	}
	if minK < 2 {
		minK = 2
	}
	if maxK < minK {
		return nil, fmt.Errorf("ml: no cluster count in [%d, %d]", minK, maxK)
	}
	maxK = distinctRows(X, maxK) // ≤ len(X)
	if maxK < minK {
		// Degenerate data: fewer than minK distinct rows. One cluster.
		return KMeans(X, 1, cfg)
	}
	m, err := NewMatrix(X)
	if err != nil {
		return nil, err
	}

	ks := make([]int, maxK-minK+1)
	for i := range ks {
		ks[i] = minK + i
	}
	perK := runGrid(m, ks, cfg)

	// Draw the sampler seed after the run seeds so the cfg.Rng stream
	// consumed by a given (minK, maxK) sweep is fixed.
	exact := m.Rows <= silhouetteExactThreshold
	var sampleRng *rand.Rand
	if !exact {
		sampleRng = rand.New(rand.NewSource(cfg.Rng.Int63()))
	}

	var scores []float64
	if exact {
		scores = make([]float64, len(ks))
		D := pairwiseDistances(m)
		parallel.Do(resolveWorkers(cfg.Workers, len(ks)), len(ks), func(ki int) {
			scores[ki] = silhouetteFromDists(D, m.Rows, perK[ki].Assignments, perK[ki].K)
		})
	} else {
		sample := sampleIndices(m.Rows, silhouetteSample, sampleRng)
		scores = silhouetteSweep(m, perK, sample, cfg.Workers)
	}

	best := 0
	for ki := 1; ki < len(ks); ki++ {
		if scores[ki] > scores[best] {
			best = ki
		}
	}
	return perK[best], nil
}

// countDistinctRows counts unique rows by their exact bit patterns (the
// frozen reference sweep in kmeans_ref.go counts them all).
func countDistinctRows(X [][]float64) int { return distinctRows(X, len(X)) }

// distinctRows counts unique rows by their exact bit patterns, stopping
// at limit: KMeansAuto only needs to know whether there are maxK of
// them, which on real signatures the first maxK rows settle.
func distinctRows(X [][]float64, limit int) int {
	seen := make(map[string]struct{}, max(limit, 0))
	var buf []byte
	for _, row := range X {
		if len(seen) >= limit {
			break
		}
		buf = buf[:0]
		for _, v := range row {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		seen[string(buf)] = struct{}{}
	}
	return len(seen)
}

// NearestRowToCentroid returns, for each cluster, the index of the row
// closest to its centroid. The paper tunes "the instance that is closest
// to the cluster's centroid". Clusters with no members map to -1.
func NearestRowToCentroid(X [][]float64, res *KMeansResult) []int {
	nearest := make([]int, res.K)
	bestDist := make([]float64, res.K)
	for c := range nearest {
		nearest[c] = -1
		bestDist[c] = math.Inf(1)
	}
	for i, row := range X {
		c := res.Assignments[i]
		if d := SquaredDistance(row, res.Centroids[c]); d < bestDist[c] {
			bestDist[c] = d
			nearest[c] = i
		}
	}
	return nearest
}
