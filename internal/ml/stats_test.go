package ml

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// errEmpty is returned by statistics helpers that need at least one value.
var errEmpty = errors.New("ml: empty input")

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
	if got := sampleVariance(xs); !almostEqual(got, 5.0/3, 1e-12) {
		t.Errorf("SampleVariance=%v want %v", got, 5.0/3)
	}
	if got := sampleVariance([]float64{1}); got != 0 {
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
	if _, err := minOf(nil); err != errEmpty {
		t.Errorf("minOf(nil) err=%v want errEmpty", err)
	}
	if _, err := maxOf(nil); err != errEmpty {
		t.Errorf("maxOf(nil) err=%v want errEmpty", err)
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
		got, err := percentile(xs, tc.p)
		if err != nil {
			t.Fatalf("percentile(%v): %v", tc.p, err)
		}
		if !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("percentile(%v)=%v want %v", tc.p, got, tc.want)
		}
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("Percentile on empty should error")
	}
	if _, err := percentile(xs, -1); err == nil {
		t.Error("percentile(-1) should error")
	}
	if _, err := percentile(xs, 101); err == nil {
		t.Error("percentile(101) should error")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := percentile(xs, 50); err != nil {
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

// stdErr returns the standard error of the mean of xs.
func stdErr(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return math.Sqrt(sampleVariance(xs) / float64(len(xs)))
}

// minOf returns the smallest element of xs.
func minOf(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// maxOf returns the largest element of xs.
func maxOf(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// median returns the 50th percentile of xs.
func median(xs []float64) (float64, error) { return percentile(xs, 50) }

// sampleVariance returns the unbiased sample variance (divide by n-1).
func sampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. The input is not modified.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("ml: percentile out of range")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}
