package ml

import (
	"math"
	"math/rand"
	"testing"
)

// silhouetteSampledRef is the estimator written straight down for one
// clustering — every sampled row's distances recomputed, bucketed by
// cluster as they are produced — as KMeansAuto ran it once per
// candidate k before the distances were hoisted out of the sweep. It
// lives here as the oracle for the shared kernel, not in the package.
func silhouetteSampledRef(m *Matrix, assign []int, k int, sample []int) float64 {
	n := m.Rows
	if n == 0 || k <= 1 || len(sample) == 0 {
		return 0
	}
	clusterSize := make([]int, k)
	for _, c := range assign {
		clusterSize[c]++
	}
	sums := make([]float64, k)
	total, counted := 0.0, 0
	for _, i := range sample {
		own := assign[i]
		if clusterSize[own] <= 1 {
			counted++
			continue // silhouette 0
		}
		for c := range sums {
			sums[c] = 0
		}
		ri, ni := m.Row(i), m.Norms[i]
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			sums[assign[j]] += normDistance(ri, m.Row(j), ni, m.Norms[j])
		}
		a := sums[own] / float64(clusterSize[own]-1)
		b := math.Inf(1)
		for c := 0; c < k; c++ {
			if c == own || clusterSize[c] == 0 {
				continue
			}
			if d := sums[c] / float64(clusterSize[c]); d < b {
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

// TestHoistedSilhouetteMatchesPerK: scoring a whole sweep off one pass
// of distances gives every candidate k the float the per-k estimator
// gives it, at any worker count.
func TestHoistedSilhouetteMatchesPerK(t *testing.T) {
	m, err := NewMatrix(standardized(t, LatticeSignatures(4, 3000, 6, 5)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := KMeansConfig{Rng: rand.New(rand.NewSource(4))}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	ks := []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	perK := runGrid(m, ks, cfg)
	sample := sampleIndices(m.Rows, silhouetteSample, rand.New(rand.NewSource(cfg.Rng.Int63())))
	want := make([]float64, len(perK))
	for ki, res := range perK {
		want[ki] = silhouetteSampledRef(m, res.Assignments, res.K, sample)
	}
	for _, workers := range []int{1, 2, 8} {
		for ki, score := range silhouetteSweep(m, perK, sample, workers) {
			if score != want[ki] {
				t.Errorf("workers=%d k=%d: hoisted score %v, per-k score %v", workers, ks[ki], score, want[ki])
			}
		}
	}
}

// TestHoistedSilhouetteEdgeClusters covers the rows the estimator
// scores 0 — singleton clusters, no other non-empty cluster, k = 1 —
// on random labelings, and SilhouetteEstimate's use of the same kernel.
func TestHoistedSilhouetteEdgeClusters(t *testing.T) {
	meta := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 30 + meta.Intn(100)
		X := randomDataset(meta, n, 1+meta.Intn(5))
		m, err := NewMatrix(X)
		if err != nil {
			t.Fatal(err)
		}
		var perK []*KMeansResult
		for k := 1; k <= 6; k++ {
			assign := make([]int, n)
			for i := range assign {
				assign[i] = meta.Intn(1 + meta.Intn(k)) // often leaves clusters empty
			}
			assign[meta.Intn(n)] = k - 1 // and often one a singleton
			perK = append(perK, &KMeansResult{K: k, Assignments: assign})
		}
		sample := sampleIndices(n, 20, meta)
		scores := silhouetteSweep(m, perK, sample, 2)
		for ki, res := range perK {
			if want := silhouetteSampledRef(m, res.Assignments, res.K, sample); scores[ki] != want {
				t.Fatalf("trial %d k=%d: hoisted score %v, per-k score %v", trial, res.K, scores[ki], want)
			}
		}

		seed := meta.Int63()
		res := perK[3]
		got, err := SilhouetteEstimate(X, res.Assignments, res.K, SilhouetteConfig{SampleSize: 20, ExactThreshold: 10, Rng: rand.New(rand.NewSource(seed))})
		if err != nil {
			t.Fatal(err)
		}
		sample = sampleIndices(n, 20, rand.New(rand.NewSource(seed)))
		if want := silhouetteSampledRef(m, res.Assignments, res.K, sample); got != want {
			t.Fatalf("trial %d: SilhouetteEstimate %v, per-k score %v", trial, got, want)
		}
	}
}
