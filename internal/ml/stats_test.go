package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{4}, 4},
		{"symmetric", []float64{1, 2, 3}, 2},
		{"negative", []float64{-2, 2}, 0},
	}
	for _, tc := range cases {
		if got := Mean(tc.in); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("%s: Mean=%v want %v", tc.name, got, tc.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance=%v want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev=%v want 2", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance singleton=%v want 0", got)
	}
}

func TestSampleVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	// Sum of squared deviations = 5, n-1 = 3.
	if got := SampleVariance(xs); !almostEqual(got, 5.0/3, 1e-12) {
		t.Errorf("SampleVariance=%v want %v", got, 5.0/3)
	}
	if got := SampleVariance([]float64{1}); got != 0 {
		t.Errorf("SampleVariance singleton=%v want 0", got)
	}
}

func TestStdErr(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	want := math.Sqrt((5.0 / 3) / 4)
	if got := stdErr(xs); !almostEqual(got, want, 1e-12) {
		t.Errorf("StdErr=%v want %v", got, want)
	}
	if got := stdErr(nil); got != 0 {
		t.Errorf("StdErr empty=%v want 0", got)
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Pearson=%v want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("Pearson=%v want -1", got)
	}
}

func TestPearsonConstantVector(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("Pearson with constant=%v want 0", got)
	}
}

func TestPearsonBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r := Pearson(xs, ys)
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	mn, err := minOf(xs)
	if err != nil || mn != -1 {
		t.Errorf("Min=%v err=%v", mn, err)
	}
	mx, err := maxOf(xs)
	if err != nil || mx != 7 {
		t.Errorf("Max=%v err=%v", mx, err)
	}
	if _, err := minOf(nil); err != ErrEmpty {
		t.Errorf("minOf(nil) err=%v want ErrEmpty", err)
	}
	if _, err := maxOf(nil); err != ErrEmpty {
		t.Errorf("maxOf(nil) err=%v want ErrEmpty", err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {90, 4.6},
	}
	for _, tc := range cases {
		got, err := Percentile(xs, tc.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tc.p, err)
		}
		if !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("Percentile(%v)=%v want %v", tc.p, got, tc.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("Percentile on empty should error")
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("Percentile(-1) should error")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("Percentile(101) should error")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

func TestMedian(t *testing.T) {
	got, err := median([]float64{9, 1, 5})
	if err != nil || got != 5 {
		t.Errorf("Median=%v err=%v", got, err)
	}
	got, err = median([]float64{1, 2, 3, 4})
	if err != nil || !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("Median even=%v err=%v", got, err)
	}
}

func TestEntropyOf(t *testing.T) {
	if got := EntropyOf([]int{5, 5}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Entropy 50/50=%v want 1", got)
	}
	if got := EntropyOf([]int{10, 0}); got != 0 {
		t.Errorf("Entropy pure=%v want 0", got)
	}
	if got := EntropyOf(nil); got != 0 {
		t.Errorf("Entropy empty=%v want 0", got)
	}
	if got := EntropyOf([]int{1, 1, 1, 1}); !almostEqual(got, 2, 1e-12) {
		t.Errorf("Entropy uniform-4=%v want 2", got)
	}
}

func TestEntropyNonNegativeProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		h := EntropyOf([]int{int(a), int(b), int(c)})
		return h >= 0 && h <= math.Log2(3)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistances(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if got := EuclideanDistance(a, b); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Euclidean=%v want 5", got)
	}
	if got := SquaredDistance(a, b); !almostEqual(got, 25, 1e-12) {
		t.Errorf("Squared=%v want 25", got)
	}
}

func TestDistanceProperties(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) {
			return true
		}
		if math.Abs(ax) > 1e100 || math.Abs(ay) > 1e100 || math.Abs(bx) > 1e100 || math.Abs(by) > 1e100 {
			return true
		}
		a := []float64{ax, ay}
		b := []float64{bx, by}
		d1 := EuclideanDistance(a, b)
		d2 := EuclideanDistance(b, a)
		return d1 >= 0 && almostEqual(d1, d2, 1e-9*(1+d1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCovariance(t *testing.T) {
	xs := []float64{1, 2, 3}
	ys := []float64{2, 4, 6}
	// cov = mean of (x-2)(y-4) = ((-1)(-2)+(0)(0)+(1)(2))/3 = 4/3
	if got := Covariance(xs, ys); !almostEqual(got, 4.0/3, 1e-12) {
		t.Errorf("Covariance=%v want %v", got, 4.0/3)
	}
	if got := Covariance(xs, []float64{1}); got != 0 {
		t.Errorf("Covariance mismatched lengths=%v want 0", got)
	}
}
