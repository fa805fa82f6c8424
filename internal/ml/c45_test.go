package ml

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// thresholdDataset: label = 1 iff x0 > 5; x1 is noise.
func thresholdDataset(rng *rand.Rand, n int) *Dataset {
	d := NewDataset([]string{"x0", "noise"})
	for i := 0; i < n; i++ {
		x0 := rng.Float64() * 10
		label := 0
		if x0 > 5 {
			label = 1
		}
		_ = d.Add([]float64{x0, rng.Float64()}, label)
	}
	return d
}

func TestC45LearnsThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := thresholdDataset(rng, 200)
	tree, err := NewC45(d, C45Config{})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < 100; i++ {
		x0 := rng.Float64() * 10
		want := 0
		if x0 > 5 {
			want = 1
		}
		if tree.Predict([]float64{x0, rng.Float64()}) == want {
			correct++
		}
	}
	if correct < 95 {
		t.Errorf("threshold accuracy %d/100, want >= 95", correct)
	}
}

func TestC45PureDatasetIsLeaf(t *testing.T) {
	d := NewDataset([]string{"a"})
	for i := 0; i < 10; i++ {
		_ = d.Add([]float64{float64(i)}, 0)
	}
	tree, err := NewC45(d, C45Config{})
	if err != nil {
		t.Fatal(err)
	}
	if depthOf(tree.root) != 1 || leavesOf(tree.root) != 1 {
		t.Errorf("pure data should give single leaf, depth=%d leaves=%d", depthOf(tree.root), leavesOf(tree.root))
	}
	label, conf := tree.PredictProba([]float64{3})
	if label != 0 || conf != 1 {
		t.Errorf("PredictProba=(%d,%v) want (0,1)", label, conf)
	}
}

func TestC45EmptyAndUnlabeled(t *testing.T) {
	d := NewDataset([]string{"a"})
	if _, err := NewC45(d, C45Config{}); err == nil {
		t.Error("empty dataset should error")
	}
}

func TestC45MultiClass(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDataset([]string{"x"})
	// Three bands: [0,1) -> 0, [1,2) -> 1, [2,3) -> 2.
	for i := 0; i < 300; i++ {
		x := rng.Float64() * 3
		_ = d.Add([]float64{x}, int(x))
	}
	tree, err := NewC45(d, C45Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		x    float64
		want int
	}{{0.5, 0}, {1.5, 1}, {2.5, 2}} {
		if got := tree.Predict([]float64{tc.x}); got != tc.want {
			t.Errorf("Predict(%v)=%d want %d", tc.x, got, tc.want)
		}
	}
}

func TestC45MaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := thresholdDataset(rng, 200)
	tree, err := NewC45(d, C45Config{MaxDepth: 1, Prune: false})
	if err != nil {
		t.Fatal(err)
	}
	// MaxDepth bounds split levels: one split -> two leaf children.
	if depthOf(tree.root) > 2 {
		t.Errorf("depth=%d want <= 2", depthOf(tree.root))
	}
	if leavesOf(tree.root) > 2 {
		t.Errorf("leaves=%d want <= 2", leavesOf(tree.root))
	}
}

func TestC45MinLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := thresholdDataset(rng, 100)
	big, err := NewC45(d, C45Config{MinLeaf: 40, Prune: false})
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewC45(d, C45Config{MinLeaf: 2, Prune: false})
	if err != nil {
		t.Fatal(err)
	}
	if leavesOf(big.root) > leavesOf(small.root) {
		t.Errorf("MinLeaf=40 leaves=%d should be <= MinLeaf=2 leaves=%d", leavesOf(big.root), leavesOf(small.root))
	}
}

func TestC45PruningShrinksNoisyTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Pure noise: labels independent of features. An unpruned tree
	// overfits; a pruned tree should be no bigger.
	d := NewDataset([]string{"x", "y"})
	for i := 0; i < 120; i++ {
		_ = d.Add([]float64{rng.Float64(), rng.Float64()}, rng.Intn(2))
	}
	unpruned, err := NewC45(d, C45Config{Prune: false})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := NewC45(d, C45Config{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	if leavesOf(pruned.root) > leavesOf(unpruned.root) {
		t.Errorf("pruned leaves=%d > unpruned leaves=%d", leavesOf(pruned.root), leavesOf(unpruned.root))
	}
}

func TestC45ConfidenceBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := thresholdDataset(rng, 100)
	tree, err := NewC45(d, C45Config{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(x0, x1 float64) bool {
		if x0 < 0 || x0 > 10 {
			x0 = 5
		}
		_, conf := tree.PredictProba([]float64{x0, x1})
		return conf >= 0 && conf <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestC45String(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := thresholdDataset(rng, 100)
	tree, err := NewC45(d, C45Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := tree.String()
	if !strings.Contains(s, "x0") {
		t.Errorf("rendered tree should mention attribute x0:\n%s", s)
	}
	if !strings.Contains(s, "class") {
		t.Errorf("rendered tree should contain leaves:\n%s", s)
	}
}

func TestNormalQuantile(t *testing.T) {
	cases := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.75, 0.6745},
		{0.975, 1.9600},
		{0.025, -1.9600},
	}
	for _, tc := range cases {
		if got := normalQuantile(tc.p); !almostEqual(got, tc.want, 2e-3) {
			t.Errorf("normalQuantile(%v)=%v want %v", tc.p, got, tc.want)
		}
	}
}

func TestPessimisticErrorsMonotonic(t *testing.T) {
	// More observed errors -> more pessimistic errors.
	prev := -1.0
	for e := 0; e <= 10; e++ {
		pe := pessimisticErrors(e, 20, 0.25)
		if pe < prev {
			t.Errorf("pessimisticErrors(%d) = %v < previous %v", e, pe, prev)
		}
		prev = pe
	}
	// Pessimistic estimate must be at least the observed errors.
	if pe := pessimisticErrors(5, 20, 0.25); pe < 5 {
		t.Errorf("pessimisticErrors(5,20)=%v want >= 5", pe)
	}
	if pe := pessimisticErrors(0, 0, 0.25); pe != 0 {
		t.Errorf("pessimisticErrors with n=0 = %v want 0", pe)
	}
}

// TestC45TreeIndependentOfGOMAXPROCS: nodes of parallelSplitRows rows
// and more search their attributes concurrently; the tree must be the
// one a single processor grows, also over an attribute whose repeated
// values the sort may leave in any order.
func TestC45TreeIndependentOfGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := NewDataset([]string{"smooth", "stepped", "coarse", "noise"})
	for i := 0; i < 3*parallelSplitRows; i++ {
		x := rng.Float64() * 10
		label := int(x / 2.5)
		if rng.Float64() < 0.1 {
			label = rng.Intn(4)
		}
		row := []float64{x, math.Round(2*x+rng.NormFloat64()) / 2, float64(rng.Intn(3)), rng.NormFloat64()}
		if err := d.Add(row, label); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, cfg := range []C45Config{{}, {Prune: true}} {
		var text string
		var wire []byte
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			tree, err := NewC45(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			data, err := MarshalClassifier(tree)
			if err != nil {
				t.Fatal(err)
			}
			if procs == 1 {
				text, wire = tree.String(), data
				if leavesOf(tree.root) < 8 {
					t.Fatalf("tree has %d leaves; the noisy labels should grow it well below the root", leavesOf(tree.root))
				}
				continue
			}
			if tree.String() != text {
				t.Errorf("prune=%v GOMAXPROCS=%d: tree differs from GOMAXPROCS=1", cfg.Prune, procs)
			}
			if !bytes.Equal(data, wire) {
				t.Errorf("prune=%v GOMAXPROCS=%d: marshalled tree differs from GOMAXPROCS=1", cfg.Prune, procs)
			}
		}
	}
}
