package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// threeBlobs generates three well-separated Gaussian blobs.
func threeBlobs(rng *rand.Rand, perBlob int) ([][]float64, []int) {
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	var X [][]float64
	var truth []int
	for c, center := range centers {
		for i := 0; i < perBlob; i++ {
			X = append(X, []float64{
				center[0] + rng.NormFloat64()*0.5,
				center[1] + rng.NormFloat64()*0.5,
			})
			truth = append(truth, c)
		}
	}
	return X, truth
}

func TestKMeansRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, truth := threeBlobs(rng, 30)
	res, err := KMeans(X, 3, KMeansConfig{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 3 || len(res.Centroids) != 3 {
		t.Fatalf("K=%d centroids=%d", res.K, len(res.Centroids))
	}
	// Every true blob must map to exactly one cluster.
	mapping := map[int]int{}
	for i, c := range res.Assignments {
		if prev, ok := mapping[truth[i]]; ok {
			if prev != c {
				t.Fatalf("blob %d split across clusters %d and %d", truth[i], prev, c)
			}
		} else {
			mapping[truth[i]] = c
		}
	}
	if len(mapping) != 3 {
		t.Fatalf("expected 3 distinct clusters, got %d", len(mapping))
	}
}

func TestKMeansValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X := [][]float64{{1, 2}, {3, 4}}
	if _, err := KMeans(X, 0, KMeansConfig{Rng: rng}); err == nil {
		t.Error("K=0 should error")
	}
	if _, err := KMeans(X, 3, KMeansConfig{Rng: rng}); err == nil {
		t.Error("K>n should error")
	}
	if _, err := KMeans(nil, 1, KMeansConfig{Rng: rng}); err == nil {
		t.Error("empty X should error")
	}
	if _, err := KMeans(X, 1, KMeansConfig{}); err == nil {
		t.Error("nil Rng should error")
	}
	ragged := [][]float64{{1, 2}, {3}}
	if _, err := KMeans(ragged, 1, KMeansConfig{Rng: rng}); err == nil {
		t.Error("ragged matrix should error")
	}
}

func TestKMeansK1(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X := [][]float64{{0, 0}, {2, 0}, {0, 2}, {2, 2}}
	res, err := KMeans(X, 1, KMeansConfig{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Centroids[0][0], 1, 1e-9) || !almostEqual(res.Centroids[0][1], 1, 1e-9) {
		t.Errorf("centroid=%v want [1 1]", res.Centroids[0])
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, _ := threeBlobs(rng, 20)
	var prev float64 = math.Inf(1)
	for k := 1; k <= 4; k++ {
		res, err := KMeans(X, k, KMeansConfig{Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		if res.Inertia > prev+1e-6 {
			t.Errorf("inertia increased from %v to %v at k=%d", prev, res.Inertia, k)
		}
		prev = res.Inertia
	}
}

func TestKMeansAssignmentsAreNearest(t *testing.T) {
	// Property: each row is assigned to its nearest centroid.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		X := make([][]float64, n)
		for i := range X {
			X[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
		}
		res, err := KMeans(X, 3, KMeansConfig{Rng: rng})
		if err != nil {
			return false
		}
		for i, row := range X {
			got := res.Assignments[i]
			for c := range res.Centroids {
				if SquaredDistance(row, res.Centroids[c]) < SquaredDistance(row, res.Centroids[got])-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSilhouetteSeparatedVsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	X, truth := threeBlobs(rng, 20)
	good := Silhouette(X, truth, 3)
	if good < 0.8 {
		t.Errorf("silhouette of well-separated blobs=%v want > 0.8", good)
	}
	randomAssign := make([]int, len(X))
	for i := range randomAssign {
		randomAssign[i] = rng.Intn(3)
	}
	bad := Silhouette(X, randomAssign, 3)
	if bad >= good {
		t.Errorf("random assignment silhouette %v should be below %v", bad, good)
	}
}

func TestSilhouetteEdgeCases(t *testing.T) {
	if got := Silhouette(nil, nil, 2); got != 0 {
		t.Errorf("empty silhouette=%v want 0", got)
	}
	X := [][]float64{{0}, {1}}
	if got := Silhouette(X, []int{0, 0}, 1); got != 0 {
		t.Errorf("k=1 silhouette=%v want 0", got)
	}
}

func TestKMeansAutoFindsThree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X, _ := threeBlobs(rng, 25)
	res, err := KMeansAuto(X, 2, 8, KMeansConfig{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 3 {
		t.Errorf("auto K=%d want 3", res.K)
	}
}

func TestKMeansAutoDegenerateData(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	X := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	res, err := KMeansAuto(X, 2, 5, KMeansConfig{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 1 {
		t.Errorf("identical rows should give K=1, got %d", res.K)
	}
}

func TestKMeansAutoEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if _, err := KMeansAuto(nil, 2, 5, KMeansConfig{Rng: rng}); err == nil {
		t.Error("empty input should error")
	}
	X, _ := threeBlobs(rng, 10)
	if _, err := KMeansAuto(X, 8, 6, KMeansConfig{Rng: rng}); err == nil {
		t.Error("an empty [minK, maxK] should error, not cluster into one class")
	}
}

func TestNearestRowToCentroid(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X := [][]float64{{0, 0}, {0.1, 0}, {10, 10}, {10.2, 10}}
	res, err := KMeans(X, 2, KMeansConfig{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	nearest := NearestRowToCentroid(X, res)
	if len(nearest) != 2 {
		t.Fatalf("nearest=%v", nearest)
	}
	for c, idx := range nearest {
		if idx < 0 || idx >= len(X) {
			t.Fatalf("cluster %d nearest=%d out of range", c, idx)
		}
		if res.Assignments[idx] != c {
			t.Errorf("nearest row %d not in cluster %d", idx, c)
		}
		// No other row in the cluster may be strictly closer.
		for i, row := range X {
			if res.Assignments[i] != c {
				continue
			}
			if SquaredDistance(row, res.Centroids[c]) < SquaredDistance(X[idx], res.Centroids[c])-1e-9 {
				t.Errorf("row %d closer to centroid %d than designated nearest %d", i, c, idx)
			}
		}
	}
}

func TestKMeansDeterministicWithSameSeed(t *testing.T) {
	X, _ := threeBlobs(rand.New(rand.NewSource(9)), 15)
	run := func() *KMeansResult {
		rng := rand.New(rand.NewSource(42))
		res, err := KMeans(X, 3, KMeansConfig{Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Inertia != b.Inertia {
		t.Errorf("same seed gave different inertia: %v vs %v", a.Inertia, b.Inertia)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatalf("same seed gave different assignment at %d", i)
		}
	}
}
