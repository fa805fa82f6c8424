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
	tree, err := NewC45(d)
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
	tree, err := NewC45(d)
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
	if _, err := NewC45(d); err == nil {
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
	tree, err := NewC45(d)
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

// TestC45MinLeaf: every leaf of a tree grown on noisy labels holds at
// least minLeaf of the training rows.
func TestC45MinLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := thresholdDataset(rng, 100)
	for i := range d.Y {
		if rng.Float64() < 0.2 {
			d.Y[i] = 1 - d.Y[i]
		}
	}
	tree, err := NewC45(d)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[*c45Node]int{}
	for _, x := range d.X {
		node := tree.root
		for !node.leaf {
			if x[node.attr] <= node.threshold {
				node = node.left
			} else {
				node = node.right
			}
		}
		rows[node]++
	}
	if len(rows) != leavesOf(tree.root) || len(rows) < 3 {
		t.Fatalf("%d of %d leaves hold training rows; want all, and at least 3", len(rows), leavesOf(tree.root))
	}
	for _, n := range rows {
		if n < minLeaf {
			t.Errorf("a leaf holds %d training rows, want >= %d", n, minLeaf)
		}
	}
}

func TestC45ConfidenceBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := thresholdDataset(rng, 100)
	tree, err := NewC45(d)
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
	tree, err := NewC45(d)
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
	var text string
	var wire []byte
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		tree, err := NewC45(d)
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
			t.Errorf("GOMAXPROCS=%d: tree differs from GOMAXPROCS=1", procs)
		}
		if !bytes.Equal(data, wire) {
			t.Errorf("GOMAXPROCS=%d: marshalled tree differs from GOMAXPROCS=1", procs)
		}
	}
}

// depthOf returns the depth of a tree (a lone leaf has depth 1).
func depthOf(n *c45Node) int {
	if n == nil {
		return 0
	}
	if n.leaf {
		return 1
	}
	l, r := depthOf(n.left), depthOf(n.right)
	if l > r {
		return 1 + l
	}
	return 1 + r
}

// leavesOf returns the number of leaves.
func leavesOf(n *c45Node) int {
	if n == nil {
		return 0
	}
	if n.leaf {
		return 1
	}
	return leavesOf(n.left) + leavesOf(n.right)
}
