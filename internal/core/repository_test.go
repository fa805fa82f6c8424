package core

import (
	"math/rand"
	"testing"

	"repro/internal/cloud"
	"repro/internal/metrics"
	"repro/internal/ml"
)

// buildTestRepository creates a 2-class repository over two events,
// classes centered at (0,0) and (10,10) in raw space.
func buildTestRepository(t *testing.T) *Repository {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	events := []metrics.Event{metrics.EvFlopsRate, metrics.EvCPUClkUnhalt}
	d := ml.NewDataset([]string{"flops", "cpu"})
	for i := 0; i < 40; i++ {
		_ = d.Add([]float64{rng.NormFloat64() * 0.5, rng.NormFloat64() * 0.5}, 0)
		_ = d.Add([]float64{10 + rng.NormFloat64()*0.5, 10 + rng.NormFloat64()*0.5}, 1)
	}
	std, err := ml.FitStandardizer(d)
	if err != nil {
		t.Fatal(err)
	}
	z := std.TransformDataset(d)
	clf, err := ml.NewC45(z)
	if err != nil {
		t.Fatal(err)
	}
	// Centroids in standardized space.
	km, err := ml.KMeans(z.X, 2, ml.KMeansConfig{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	radii := []float64{1.0, 1.0}
	repo, err := NewRepository(events, std, clf, km.Centroids, radii, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

func TestRepositoryConstructorValidation(t *testing.T) {
	repo := buildTestRepository(t)
	std := repo.standardizer
	clf := repo.classifier
	cents := repo.centroids
	events := repo.Events()

	if _, err := NewRepository(nil, std, clf, cents, []float64{1, 1}, 0.6); err == nil {
		t.Error("no events should error")
	}
	if _, err := NewRepository(events, nil, clf, cents, []float64{1, 1}, 0.6); err == nil {
		t.Error("nil standardizer should error")
	}
	if _, err := NewRepository(events, std, nil, cents, []float64{1, 1}, 0.6); err == nil {
		t.Error("nil classifier should error")
	}
	if _, err := NewRepository(events, std, clf, cents, []float64{1}, 0.6); err == nil {
		t.Error("mismatched radii should error")
	}
}

func TestRepositoryPutGet(t *testing.T) {
	repo := buildTestRepository(t)
	a := cloud.Allocation{Type: cloud.Large, Count: 4}
	if err := repo.Put(0, 0, a); err != nil {
		t.Fatal(err)
	}
	got, ok := repo.Get(0, 0)
	if !ok || !got.Equal(a) {
		t.Errorf("Get=(%v,%v) want (%v,true)", got, ok, a)
	}
	if _, ok := repo.Get(1, 0); ok {
		t.Error("unpopulated entry should miss")
	}
	if err := repo.Put(5, 0, a); err == nil {
		t.Error("class out of range should error")
	}
	if err := repo.Put(0, -1, a); err == nil {
		t.Error("negative bucket should error")
	}
	if err := repo.Put(0, 0, cloud.Allocation{}); err == nil {
		t.Error("invalid allocation should error")
	}
}

func TestRepositoryClassify(t *testing.T) {
	repo := buildTestRepository(t)
	// Near class 1's raw center.
	sig := &Signature{Events: repo.Events(), Values: []float64{10, 10}}
	class, certainty, unforeseen, err := repo.Classify(sig)
	if err != nil {
		t.Fatal(err)
	}
	if unforeseen {
		t.Error("in-distribution signature flagged unforeseen")
	}
	if certainty <= 0.6 {
		t.Errorf("certainty=%v want > 0.6", certainty)
	}
	_ = class // class index depends on k-means labeling; hit test below pins semantics
}

func TestRepositoryNoveltyDetection(t *testing.T) {
	repo := buildTestRepository(t)
	// Far outside both clusters.
	sig := &Signature{Events: repo.Events(), Values: []float64{100, -50}}
	_, _, unforeseen, err := repo.Classify(sig)
	if err != nil {
		t.Fatal(err)
	}
	if !unforeseen {
		t.Error("far-out signature should be unforeseen")
	}
}

func TestRepositoryLookupHitAndMiss(t *testing.T) {
	repo := buildTestRepository(t)
	sig := &Signature{Events: repo.Events(), Values: []float64{0, 0}}
	class, _, _, err := repo.Classify(sig)
	if err != nil {
		t.Fatal(err)
	}
	a := cloud.Allocation{Type: cloud.Large, Count: 3}
	if err := repo.Put(class, 0, a); err != nil {
		t.Fatal(err)
	}
	res, err := repo.Lookup(sig, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit || !res.Allocation.Equal(a) {
		t.Errorf("expected hit with %v, got %+v", a, res)
	}
	// Same class, unpopulated interference bucket: miss but class
	// preserved.
	res, err = repo.Lookup(sig, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Error("bucket 2 should miss")
	}
	if res.Class != class {
		t.Errorf("miss should preserve class %d, got %d", class, res.Class)
	}
	if res.Unforeseen {
		t.Error("bucket miss is not unforeseen")
	}
}

func TestRepositoryLookupUnforeseen(t *testing.T) {
	repo := buildTestRepository(t)
	sig := &Signature{Events: repo.Events(), Values: []float64{500, 500}}
	res, err := repo.Lookup(sig, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unforeseen || res.Hit {
		t.Errorf("expected unforeseen miss, got %+v", res)
	}
	if res.Class != -1 {
		t.Errorf("unforeseen class=%d want -1", res.Class)
	}
}

func TestRepositoryHitRate(t *testing.T) {
	repo := buildTestRepository(t)
	if repo.HitRate() != 0 {
		t.Error("fresh repository should report 0 hit rate")
	}
	sig := &Signature{Events: repo.Events(), Values: []float64{0, 0}}
	class, _, _, _ := repo.Classify(sig)
	_ = repo.Put(class, 0, cloud.Allocation{Type: cloud.Large, Count: 2})
	if _, err := repo.Lookup(sig, 0); err != nil { // hit
		t.Fatal(err)
	}
	if _, err := repo.Lookup(sig, 3); err != nil { // miss
		t.Fatal(err)
	}
	if got := repo.HitRate(); got != 0.5 {
		t.Errorf("HitRate=%v want 0.5", got)
	}
}

func TestRepositorySignatureValidation(t *testing.T) {
	repo := buildTestRepository(t)
	bad := &Signature{Events: repo.Events(), Values: []float64{1}}
	if _, _, _, err := repo.Classify(bad); err == nil {
		t.Error("mismatched signature width should error")
	}
	empty := &Signature{}
	if _, _, _, err := repo.Classify(empty); err == nil {
		t.Error("empty signature should error")
	}
	if _, err := repo.Lookup(bad, 0); err == nil {
		t.Error("lookup with bad signature should error")
	}
}

func TestRepositorySnapshotSorted(t *testing.T) {
	repo := buildTestRepository(t)
	_ = repo.Put(1, 1, cloud.Allocation{Type: cloud.Large, Count: 5})
	_ = repo.Put(0, 2, cloud.Allocation{Type: cloud.Large, Count: 4})
	_ = repo.Put(0, 0, cloud.Allocation{Type: cloud.Large, Count: 2})
	snap := repo.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot size=%d want 3", len(snap))
	}
	if snap[0].Class != 0 || snap[0].Bucket != 0 ||
		snap[1].Class != 0 || snap[1].Bucket != 2 ||
		snap[2].Class != 1 {
		t.Errorf("snapshot not sorted: %+v", snap)
	}
}

// TestRepositoryBucketBeyondKey: an entry key holds a bucket in 32
// bits, so a wider bucket is refused by Put and misses on Get and
// Lookup instead of aliasing the bucket its low bits name.
func TestRepositoryBucketBeyondKey(t *testing.T) {
	repo := buildTestRepository(t)
	sig := &Signature{Events: repo.Events(), Values: []float64{0, 0}}
	class, _, _, err := repo.Classify(sig)
	if err != nil {
		t.Fatal(err)
	}
	a := cloud.Allocation{Type: cloud.Large, Count: 3}
	if err := repo.Put(class, 3, a); err != nil {
		t.Fatal(err)
	}
	shift := 32
	wide := 3 + 1<<shift // bucket 3 in the low 32 bits
	if wide == 3 {
		t.Skip("int is 32 bits wide")
	}
	if err := repo.Put(class, wide, a); err == nil {
		t.Error("Put accepted a bucket wider than 32 bits")
	}
	if _, ok := repo.Get(class, wide); ok {
		t.Error("Get hit bucket 3 for a bucket wider than 32 bits")
	}
	if res, err := repo.Lookup(sig, wide); err != nil || res.Hit {
		t.Errorf("Lookup at a bucket wider than 32 bits: %+v, %v; want a miss", res, err)
	}
	out := make([]LookupResult, 1)
	if err := repo.LookupRows(wide, [][]float64{sig.Values}, out); err != nil || out[0].Hit {
		t.Errorf("LookupRows at a bucket wider than 32 bits: %+v, %v; want a miss", out[0], err)
	}
}

func TestBucketForFraction(t *testing.T) {
	cases := []struct {
		fraction float64
		want     int
	}{
		{-0.1, 0}, {0, 0}, {0.01, 1}, {0.05, 1}, {0.07, 2}, {0.10, 2},
		{0.20, 4}, {0.95, 18}, {5, 18},
	}
	for _, tc := range cases {
		if got := BucketForFraction(tc.fraction); got != tc.want {
			t.Errorf("BucketForFraction(%v)=%d want %d", tc.fraction, got, tc.want)
		}
	}
}

func TestBucketFractionRoundTrip(t *testing.T) {
	// The tuning fraction of a bucket must cover every fraction that
	// maps into the bucket.
	for _, f := range []float64{0.01, 0.05, 0.1, 0.15, 0.2, 0.3} {
		b := BucketForFraction(f)
		if got := FractionForBucket(b); got < f-1e-9 {
			t.Errorf("FractionForBucket(%d)=%v does not cover %v", b, got, f)
		}
	}
}

func TestSignatureValidate(t *testing.T) {
	good := &Signature{Events: []metrics.Event{"a"}, Values: []float64{1}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid signature: %v", err)
	}
	if err := (&Signature{}).Validate(); err == nil {
		t.Error("empty signature should fail")
	}
	bad := &Signature{Events: []metrics.Event{"a", "b"}, Values: []float64{1}}
	if err := bad.Validate(); err == nil {
		t.Error("mismatched signature should fail")
	}
}
