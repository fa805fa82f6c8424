package testkit

import (
	"math/rand"

	"repro/internal/rng"
)

// ClusteredDataset synthesizes a signature-like dataset for the
// learn-phase benchmarks: n rows from classes well-separated Gaussian
// clusters in dims dimensions (centers uniform in [-8, 8), noise
// σ=0.8), assigned round-robin so cluster sizes are balanced. The
// fleet-scale chosen-k test (TestKMeansAutoChosenKAtFleetScale) and
// the root bench_test.go sweeps share this one generator so they
// always exercise the same distribution.
func ClusteredDataset(seed int64, n, dims, classes int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, classes)
	for c := range centers {
		centers[c] = make([]float64, dims)
		for j := range centers[c] {
			centers[c][j] = rng.Float64()*16 - 8
		}
	}
	X := make([][]float64, n)
	for i := range X {
		c := centers[i%classes]
		row := make([]float64, dims)
		for j := range row {
			row[j] = c[j] + rng.NormFloat64()*0.8
		}
		X[i] = row
	}
	return X
}

// LatticeSignatures synthesizes the time-to-adapt benchmark's relearn
// input (benchmark/adapt.go draws the same shape): n rows over dims
// columns around classes latent centres on a fixed 12-wide lattice,
// unit noise, assigned round-robin. Only the noise comes from the seed,
// so the class count is a property of the data and the clustering does
// about the same work at every seed. The exactness tests and
// BenchmarkRelearnFromSignatures share it so they run the regime the
// system benchmark times: a cold sweep whose k > classes runs split a
// true blob and take tens of Lloyd iterations.
func LatticeSignatures(seed int64, n, dims, classes int) [][]float64 {
	r := rng.New(seed)
	centres := make([][]float64, classes)
	for c := range centres {
		centres[c] = make([]float64, dims)
		for j := range centres[c] {
			centres[c][j] = 20 + 12*float64((c+j)%classes)
		}
	}
	X := make([][]float64, n)
	for i := range X {
		c := centres[i%classes]
		X[i] = make([]float64, dims)
		for j := range X[i] {
			X[i][j] = c[j] + r.NormFloat64()
		}
	}
	return X
}
