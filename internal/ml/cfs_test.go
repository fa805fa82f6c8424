package ml

import (
	"math"
	"math/rand"
	"testing"
)

// signatureDataset builds a dataset with four classes encoded by two
// *complementary* informative attributes (inf1 carries the low bit,
// inf2 the high bit), a near-perfect copy of inf1 ("dup", redundant),
// and pure-noise attributes — the structure CFS is designed to
// untangle: keep inf1 and inf2, drop dup and the noise.
func signatureDataset(rng *rand.Rand, n int) *Dataset {
	d := NewDataset([]string{"inf1", "noise1", "dup", "inf2", "noise2", "noise3"})
	for i := 0; i < n; i++ {
		class := rng.Intn(4)
		inf1 := float64(class%2)*10 + rng.NormFloat64()
		inf2 := float64(class/2)*10 + rng.NormFloat64()
		row := []float64{
			inf1,
			rng.NormFloat64() * 3,
			inf1 * 1.001, // nearly perfect copy of inf1
			inf2,
			rng.NormFloat64() * 3,
			rng.NormFloat64() * 3,
		}
		_ = d.Add(row, class)
	}
	return d
}

func TestCFSSelectsInformativeAttributes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := signatureDataset(rng, 300)
	res, err := CFSSelect(d)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, a := range res.Selected {
		names = append(names, d.Attributes[a])
	}
	has := func(name string) bool {
		for _, n := range names {
			if n == name {
				return true
			}
		}
		return false
	}
	if !has("inf1") && !has("dup") {
		t.Errorf("CFS missed informative attr family inf1/dup: %v", names)
	}
	if !has("inf2") {
		t.Errorf("CFS missed inf2: %v", names)
	}
	if has("noise1") || has("noise2") || has("noise3") {
		t.Errorf("CFS selected noise: %v", names)
	}
	// Redundancy: inf1 and its near-copy should not both be chosen.
	if has("inf1") && has("dup") {
		t.Errorf("CFS kept redundant pair inf1+dup: %v", names)
	}
	if res.Merit <= 0 {
		t.Errorf("merit=%v want > 0", res.Merit)
	}
}

// cfsMerit is the CFS merit of subset, k·mean(feature-class
// correlation) / √(k + k(k−1)·mean(feature-feature correlation)),
// summed in the order CFSSelect sums.
func cfsMerit(d *Dataset, subset []int) float64 {
	k := float64(len(subset))
	sumCF, sumFF, pairs := 0.0, 0.0, 0
	for i, a := range subset {
		sumCF += CorrelationRatio(d.Column(a), d.Y, d.NumClasses())
		for _, b := range subset[i+1:] {
			sumFF += math.Abs(Pearson(d.Column(a), d.Column(b)))
			pairs++
		}
	}
	meanFF := 0.0
	if pairs > 0 {
		meanFF = sumFF / float64(pairs)
	}
	return k * (sumCF / k) / math.Sqrt(k+k*(k-1)*meanFF)
}

// TestCFSMeritTraceNonDecreasing: each greedy step raised the merit of
// the subset selected so far, and the reported merit is the final
// subset's.
func TestCFSMeritTraceNonDecreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := signatureDataset(rng, 200)
	res, err := CFSSelect(d)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i := 1; i <= len(res.Selected); i++ {
		m := cfsMerit(d, res.Selected[:i])
		if m < prev {
			t.Errorf("merit decreased at step %d: %v after %v", i, m, prev)
		}
		prev = m
	}
	if prev != res.Merit {
		t.Errorf("final subset's merit %v, reported %v", prev, res.Merit)
	}
}

func TestCFSAllNoiseFallsBackToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := NewDataset([]string{"n1", "n2"})
	for i := 0; i < 100; i++ {
		_ = d.Add([]float64{rng.NormFloat64(), rng.NormFloat64()}, rng.Intn(2))
	}
	res, err := CFSSelect(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) == 0 {
		t.Error("CFS must always return at least one attribute")
	}
}

func TestCFSEmptyDataset(t *testing.T) {
	d := NewDataset([]string{"a"})
	if _, err := CFSSelect(d); err == nil {
		t.Error("empty dataset should error")
	}
}

func TestCorrelationRatio(t *testing.T) {
	// Perfectly separated: eta = 1.
	xs := []float64{0, 0, 0, 10, 10, 10}
	ys := []int{0, 0, 0, 1, 1, 1}
	if got := CorrelationRatio(xs, ys, 2); !almostEqual(got, 1, 1e-9) {
		t.Errorf("eta=%v want 1", got)
	}
	// Constant xs: eta = 0.
	if got := CorrelationRatio([]float64{5, 5, 5, 5}, []int{0, 0, 1, 1}, 2); got != 0 {
		t.Errorf("eta constant=%v want 0", got)
	}
	// Class-independent xs: eta near 0.
	if got := CorrelationRatio([]float64{1, 2, 1, 2}, []int{0, 0, 1, 1}, 2); !almostEqual(got, 0, 1e-9) {
		t.Errorf("eta independent=%v want 0", got)
	}
	// Mismatched lengths: defined as 0.
	if got := CorrelationRatio([]float64{1}, []int{0, 1}, 2); got != 0 {
		t.Errorf("eta mismatched=%v want 0", got)
	}
}

func TestCorrelationRatioInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]int, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			ys[i] = rng.Intn(4)
		}
		eta := CorrelationRatio(xs, ys, 4)
		if eta < 0 || eta > 1 {
			t.Fatalf("eta=%v out of [0,1]", eta)
		}
	}
}

// TestRankByClassCorrelation: ranked by the class correlation CFS
// starts from, every informative attribute {inf1(0), dup(2), inf2(3)}
// scores above every other one.
func TestRankByClassCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := signatureDataset(rng, 300)
	informative := map[int]bool{0: true, 2: true, 3: true}
	lowest, highest := math.Inf(1), math.Inf(-1)
	for j := 0; j < d.NumAttributes(); j++ {
		if eta := CorrelationRatio(d.Column(j), d.Y, d.NumClasses()); informative[j] {
			lowest = math.Min(lowest, eta)
		} else {
			highest = math.Max(highest, eta)
		}
	}
	if lowest <= highest {
		t.Errorf("an informative attribute scores %v, below a noise one's %v", lowest, highest)
	}
}
