package ml

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/testkit"
)

// randomDataset builds an n×d matrix mixing clustered structure with
// uniform noise so the pruning bounds see both easy and hard points.
func randomDataset(rng *rand.Rand, n, d int) [][]float64 {
	centers := 1 + rng.Intn(6)
	cent := make([][]float64, centers)
	for c := range cent {
		cent[c] = make([]float64, d)
		for j := range cent[c] {
			cent[c][j] = rng.Float64()*20 - 10
		}
	}
	X := make([][]float64, n)
	for i := range X {
		row := make([]float64, d)
		if rng.Float64() < 0.8 {
			c := cent[rng.Intn(centers)]
			for j := range row {
				row[j] = c[j] + rng.NormFloat64()
			}
		} else {
			for j := range row {
				row[j] = rng.Float64()*20 - 10
			}
		}
		X[i] = row
	}
	return X
}

func sameResult(t *testing.T, label string, a, b *KMeansResult) {
	t.Helper()
	if a.K != b.K || a.Iterations != b.Iterations {
		t.Fatalf("%s: K/Iterations differ: (%d,%d) vs (%d,%d)",
			label, a.K, a.Iterations, b.K, b.Iterations)
	}
	if a.Inertia != b.Inertia {
		t.Fatalf("%s: inertia differs: %v vs %v", label, a.Inertia, b.Inertia)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatalf("%s: assignment %d differs: %d vs %d",
				label, i, a.Assignments[i], b.Assignments[i])
		}
	}
	for c := range a.Centroids {
		for j := range a.Centroids[c] {
			if a.Centroids[c][j] != b.Centroids[c][j] {
				t.Fatalf("%s: centroid[%d][%d] differs: %v vs %v",
					label, c, j, a.Centroids[c][j], b.Centroids[c][j])
			}
		}
	}
}

// TestPrunedMatchesNaive is the exactness contract of the Hamerly
// engine: across random datasets, bound-pruned runs must bit-match the
// exhaustive-scan path — same assignments, centroids, inertia, and
// iteration counts — and both must be independent of the worker count.
func TestPrunedMatchesNaive(t *testing.T) {
	meta := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 40; trial++ {
		n := 20 + meta.Intn(200)
		d := 1 + meta.Intn(8)
		X := randomDataset(meta, n, d)
		k := 1 + meta.Intn(8)
		if k > n {
			k = n
		}
		seed := meta.Int63()
		run := func(naive bool, workers int) *KMeansResult {
			res, err := KMeans(X, KMeansConfig{
				K:       k,
				Rng:     rand.New(rand.NewSource(seed)),
				Naive:   naive,
				Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		pruned := run(false, 1)
		sameResult(t, "pruned vs naive", pruned, run(true, 1))
		sameResult(t, "workers=1 vs workers=4", pruned, run(false, 4))
	}
}

// TestEngineMatchesReferenceSingleRun pins the dense engine's
// arithmetic to the original [][]float64 implementation: a single
// restart fed the same RNG must reproduce kmeansOnceRef bit for bit
// (seeding draws, empty-cluster re-seeds, centroid means, inertia).
func TestEngineMatchesReferenceSingleRun(t *testing.T) {
	meta := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := 10 + meta.Intn(150)
		d := 1 + meta.Intn(6)
		X := randomDataset(meta, n, d)
		k := 1 + meta.Intn(6)
		if k > n {
			k = n
		}
		seed := meta.Int63()

		ref := kmeansOnceRef(X, k, 100, rand.New(rand.NewSource(seed)))

		m, err := NewMatrix(X)
		if err != nil {
			t.Fatal(err)
		}
		e := newKMEngine(m)
		for _, pruned := range []bool{false, true} {
			got := e.run(k, 100, rand.New(rand.NewSource(seed)), pruned)
			sameResult(t, "engine vs reference", ref, got)
		}
	}
}

// TestKMeansAutoMatchesPrunedOffAuto checks the full KMeansAuto
// pipeline is unaffected by pruning and worker count.
func TestKMeansAutoPruningAndWorkersInvariant(t *testing.T) {
	meta := rand.New(rand.NewSource(7))
	X := randomDataset(meta, 120, 4)
	seed := meta.Int63()
	run := func(naive bool, workers int) *KMeansResult {
		res, err := KMeansAuto(X, 2, 6, KMeansConfig{
			Rng:     rand.New(rand.NewSource(seed)),
			Naive:   naive,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(false, 1)
	sameResult(t, "auto pruned vs naive", base, run(true, 1))
	sameResult(t, "auto workers=1 vs workers=8", base, run(false, 8))
}

// TestSilhouetteFromDistsMatchesExact pins the hoisted-distance-matrix
// silhouette to the exact recomputing implementation bit for bit.
func TestSilhouetteFromDistsMatchesExact(t *testing.T) {
	meta := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 5 + meta.Intn(120)
		X := randomDataset(meta, n, 3)
		k := 2 + meta.Intn(4)
		assign := make([]int, n)
		for i := range assign {
			assign[i] = meta.Intn(k)
		}
		m, err := NewMatrix(X)
		if err != nil {
			t.Fatal(err)
		}
		want := Silhouette(X, assign, k)
		got := silhouetteFromDists(pairwiseDistances(m), n, assign, k)
		if got != want {
			t.Fatalf("trial %d: silhouetteFromDists=%v Silhouette=%v", trial, got, want)
		}
	}
}

// TestSampledSilhouetteWithinTolerance is the statistical contract of
// the estimator: on a clustered dataset large enough to trigger
// sampling, the sampled score must sit close to the exact one.
func TestSampledSilhouetteWithinTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X, truth := threeBlobs(rng, 700) // n=2100 > default threshold
	exact := Silhouette(X, truth, 3)
	if got := sampledSilhouette(t, X, truth, 3, rng); math.Abs(got-exact) > 0.05 {
		t.Fatalf("sampled silhouette %v drifted from exact %v by more than 0.05", got, exact)
	}
}

// TestSampledSilhouetteSelectsSameK checks the property KMeansAuto
// actually relies on: the estimator ranks candidate k like the exact
// score on clusterable data, so the chosen k is unchanged.
func TestSampledSilhouetteSelectsSameK(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	X, _ := threeBlobs(rng, 400) // n=1200, sampled path in KMeansAuto
	fast, err := KMeansAuto(X, 2, 8, KMeansConfig{Rng: rand.New(rand.NewSource(42))})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := KMeansAutoReference(X, 2, 8, KMeansConfig{Rng: rand.New(rand.NewSource(42))})
	if err != nil {
		t.Fatal(err)
	}
	if fast.K != ref.K {
		t.Fatalf("fast path chose k=%d, reference chose k=%d", fast.K, ref.K)
	}
	if fast.K != 3 {
		t.Errorf("both paths should find the 3 blobs, got %d", fast.K)
	}
}

// TestKMeansAutoChosenKAtFleetScale pins the chosen k of the sweep at
// fleet scale — 6 000 rows, k = 2…12, the sampled silhouette — on a
// draw with 5 latent classes.
func TestKMeansAutoChosenKAtFleetScale(t *testing.T) {
	X := testkit.ClusteredDataset(42, 6000, 6, 5)
	res, err := KMeansAuto(X, 2, 12, KMeansConfig{Rng: rand.New(rand.NewSource(42))})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 5 {
		t.Errorf("KMeansAuto chose k=%d on a draw with 5 classes", res.K)
	}
}

// TestKMeansAutoExactPathSmallData ensures the exact-threshold branch
// is taken for small inputs and still behaves deterministically.
func TestKMeansAutoExactPathSmallData(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X, _ := threeBlobs(rng, 30) // n=90 <= 512: exact silhouette path
	a, err := KMeansAuto(X, 2, 6, KMeansConfig{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeansAuto(X, 2, 6, KMeansConfig{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "exact path determinism", a, b)
	if a.K != 3 {
		t.Errorf("auto K=%d want 3", a.K)
	}
}

// standardized returns X rescaled column-wise to zero mean and unit
// variance, as core.RelearnFromSignatures hands it to KMeansAuto.
func standardized(t *testing.T, X [][]float64) [][]float64 {
	t.Helper()
	ds := NewDataset(make([]string, len(X[0])))
	for _, row := range X {
		if err := ds.Add(row, 0); err != nil {
			t.Fatal(err)
		}
	}
	std, err := FitStandardizer(ds)
	if err != nil {
		t.Fatal(err)
	}
	return std.TransformDataset(ds).X
}

// engineMatchesOracles runs one restart of k clusters over X three
// ways on the same seed — the pruned engine, the engine's exhaustive
// path, and the frozen [][]float64 reference — and requires the same
// assignments, centroids, inertia and iteration count bit for bit. It
// returns the iteration count so callers can check they reached the
// regime they meant to.
func engineMatchesOracles(t *testing.T, label string, X [][]float64, k int, seed int64) int {
	t.Helper()
	m, err := NewMatrix(X)
	if err != nil {
		t.Fatal(err)
	}
	ref := kmeansOnceRef(X, k, 100, rand.New(rand.NewSource(seed)))
	e := newKMEngine(m)
	sameResult(t, label+": naive engine vs reference", ref, e.run(k, 100, rand.New(rand.NewSource(seed)), false))
	sameResult(t, label+": pruned engine vs reference", ref, e.run(k, 100, rand.New(rand.NewSource(seed)), true))
	return ref.Iterations
}

// TestEngineExactOnAdaptShapedDraw checks the engine where the relearn
// spends its time: 6 000 standardized lattice signatures with 5 true
// classes, at the true k and at k above it, where a blob is split and a
// run takes tens of iterations with most clusters standing still.
func TestEngineExactOnAdaptShapedDraw(t *testing.T) {
	n := 6000
	if testing.Short() {
		n = 1500
	}
	X := standardized(t, testkit.LatticeSignatures(3, n, 6, 5))
	seeds := rand.New(rand.NewSource(17))
	for _, k := range []int{5, 6, 9, 12} {
		longest := 0
		for restart := 0; restart < 3; restart++ {
			if it := engineMatchesOracles(t, fmt.Sprintf("k=%d restart %d", k, restart), X, k, seeds.Int63()); it > longest {
				longest = it
			}
		}
		if k > 5 && longest < 10 {
			t.Errorf("k=%d: longest run took %d iterations; the draw no longer reaches the split-blob regime", k, longest)
		}
	}
}

// TestEngineExactOnTies checks the first-minimum rule under pruning on
// rows repeated many times: as drawn; on a small integer lattice, where
// centroids land exactly halfway between points; and on thirds, where
// the same configurations are off by an ulp — a point as far from a
// second centroid as from its own must go where the exhaustive scan
// sends it, also when a bound's last bits say otherwise.
func TestEngineExactOnTies(t *testing.T) {
	meta := rand.New(rand.NewSource(23))
	for trial := 0; trial < 450; trial++ {
		distinct := 3 + meta.Intn(40)
		d := 1 + meta.Intn(4)
		pool := randomDataset(meta, distinct, d)
		for _, row := range pool {
			for j := range row {
				switch trial % 3 {
				case 1:
					row[j] = float64(meta.Intn(4))
				case 2:
					row[j] = float64(meta.Intn(7)) / 3
				}
			}
		}
		n := distinct * (1 + meta.Intn(12))
		X := make([][]float64, n)
		for i := range X {
			X[i] = pool[meta.Intn(distinct)]
		}
		k := 1 + meta.Intn(distinct+3)
		if k > n {
			k = n
		}
		engineMatchesOracles(t, fmt.Sprintf("trial %d (n=%d distinct=%d k=%d)", trial, n, distinct, k), X, k, meta.Int63())
	}
}

// TestEngineExactNearKEqualsN drives the empty-cluster path: with k
// close to n — and, on odd trials, repeated rows, so seeding runs out of
// distinct centroids — clusters go empty and are re-seeded update after
// update, and the RNG draws that re-seed them must match the
// reference's.
func TestEngineExactNearKEqualsN(t *testing.T) {
	meta := rand.New(rand.NewSource(29))
	reseeded := false
	for trial := 0; trial < 60; trial++ {
		n := 8 + meta.Intn(50)
		X := randomDataset(meta, n, 1+meta.Intn(4))
		if trial%2 == 1 {
			for i := range X {
				X[i] = X[meta.Intn(1+n/3)]
			}
		}
		k := n - meta.Intn(4)
		seed := meta.Int63()
		engineMatchesOracles(t, fmt.Sprintf("trial %d (n=%d k=%d)", trial, n, k), X, k, seed)

		res := kmeansOnceRef(X, k, 100, rand.New(rand.NewSource(seed)))
		sizes := make([]int, k)
		for _, c := range res.Assignments {
			sizes[c]++
		}
		for _, size := range sizes {
			if size == 0 {
				reseeded = true
			}
		}
	}
	if !reseeded {
		t.Error("no trial ended with an empty cluster; the re-seed path was not exercised")
	}
}

// TestEngineBoundsRoundOutward is the case that needs boundSlack: three
// distinct values on thirds and one centroid more than that. The spare
// centroid is re-seeded onto a live one — an exact tie the scan settles
// by index — after moving a distance whose computed value is an ulp
// short, which leaves an unrounded lower bound at 1.1e-16 above the
// zero distance it bounds.
func TestEngineBoundsRoundOutward(t *testing.T) {
	values := []float64{1.0 / 3, 4.0 / 3, 0}
	pattern := []int{2, 1, 2, 2, 1, 1, 2, 0, 0, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 2, 1, 2, 1, 2, 0, 2}
	X := make([][]float64, len(pattern))
	for i, v := range pattern {
		X[i] = []float64{values[v]}
	}
	for seed := int64(0); seed < 300; seed++ {
		engineMatchesOracles(t, fmt.Sprintf("seed %d", seed), X, 4, seed)
	}
}
