package ml

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/parallel"
)

// Classifier is the common interface of the trained models in this
// package. Predict returns the most likely label for a feature row;
// PredictProba also returns a confidence in [0, 1] for that label, which
// DejaVu uses as the cache-hit "certainty level".
type Classifier interface {
	Predict(row []float64) int
	PredictProba(row []float64) (label int, confidence float64)
}

// minLeaf is the minimum number of training rows per leaf, WEKA J48's
// -M 2. Trees grow to any depth and are not pruned.
const minLeaf = 2

// C45Tree is a trained C4.5-style decision tree over continuous
// attributes. Splits are binary: attribute <= threshold.
type C45Tree struct {
	root       *c45Node
	numClasses int
	attributes []string
}

type c45Node struct {
	// Leaf fields.
	leaf  bool
	label int
	probs []float64 // class distribution at this node

	// Split fields.
	attr      int
	threshold float64
	left      *c45Node // rows with X[attr] <= threshold
	right     *c45Node
}

// NewC45 trains a C4.5 decision tree on a labeled dataset. It returns an
// error when the dataset is empty or unlabeled.
func NewC45(d *Dataset) (*C45Tree, error) {
	if d.Len() == 0 {
		return nil, errors.New("ml: cannot train C4.5 on empty dataset")
	}
	numClasses := d.NumClasses()
	if numClasses == 0 {
		return nil, errors.New("ml: dataset has no labels")
	}
	rows := make([]int, d.Len())
	for i := range rows {
		rows[i] = i
	}
	return &C45Tree{root: buildC45(d, rows, numClasses), numClasses: numClasses, attributes: d.Attributes}, nil
}

func classDistribution(d *Dataset, rows []int, numClasses int) ([]int, int, int) {
	counts := make([]int, numClasses)
	for _, r := range rows {
		counts[d.Y[r]]++
	}
	majority, best := 0, -1
	for c, n := range counts {
		if n > best {
			majority, best = c, n
		}
	}
	return counts, majority, best
}

func makeLeaf(counts []int, majority, n int) *c45Node {
	probs := make([]float64, len(counts))
	if n > 0 {
		for c, cnt := range counts {
			probs[c] = float64(cnt) / float64(n)
		}
	}
	return &c45Node{leaf: true, label: majority, probs: probs}
}

func buildC45(d *Dataset, rows []int, numClasses int) *c45Node {
	counts, majority, majorityCount := classDistribution(d, rows, numClasses)
	n := len(rows)
	if majorityCount == n || n < 2*minLeaf {
		return makeLeaf(counts, majority, n)
	}

	attr, threshold, ok := bestSplit(d, rows, counts)
	if !ok {
		return makeLeaf(counts, majority, n)
	}

	var leftRows, rightRows []int
	for _, r := range rows {
		if d.X[r][attr] <= threshold {
			leftRows = append(leftRows, r)
		} else {
			rightRows = append(rightRows, r)
		}
	}
	if len(leftRows) < minLeaf || len(rightRows) < minLeaf {
		return makeLeaf(counts, majority, n)
	}

	node := &c45Node{attr: attr, threshold: threshold, label: majority}
	node.probs = make([]float64, numClasses)
	for c, cnt := range counts {
		node.probs[c] = float64(cnt) / float64(n)
	}
	node.left = buildC45(d, leftRows, numClasses)
	node.right = buildC45(d, rightRows, numClasses)
	return node
}

// splitCandidate is one admissible binary split of a node.
type splitCandidate struct {
	attr      int
	threshold float64
	gain      float64
	gainRatio float64
}

// parallelSplitRows is the node size from which bestSplit searches the
// attributes concurrently. Below it the sort of a few hundred values
// costs less than handing it to another goroutine, so the trees
// core.Learn grows over a fleet template's ≤ 512 rows never fan out;
// the root and first levels of a relearn over thousands of signatures
// do.
const parallelSplitRows = 2048

// bestSplit finds the (attribute, threshold) pair with the highest gain
// ratio among splits whose information gain is at least the mean gain of
// all candidate splits (C4.5's heuristic to avoid gain-ratio
// degeneracies). Attributes are searched independently — concurrently
// on large nodes — and their candidates concatenated in attribute
// order, so the choice does not depend on scheduling.
func bestSplit(d *Dataset, rows []int, parentCounts []int) (attr int, threshold float64, ok bool) {
	parentEntropy := EntropyOf(parentCounts)
	perAttr := make([][]splitCandidate, d.NumAttributes())
	workers := 1
	if len(rows) >= parallelSplitRows {
		workers = 0 // GOMAXPROCS
	}
	parallel.Do(workers, len(perAttr), func(a int) {
		perAttr[a] = attributeSplits(d, rows, a, parentCounts, parentEntropy)
	})
	var candidates []splitCandidate
	for _, cs := range perAttr {
		candidates = append(candidates, cs...)
	}
	if len(candidates) == 0 {
		return 0, 0, false
	}

	meanGain := 0.0
	for _, c := range candidates {
		meanGain += c.gain
	}
	meanGain /= float64(len(candidates))

	best := splitCandidate{gainRatio: -1}
	for _, c := range candidates {
		if c.gain+1e-12 >= meanGain && c.gainRatio > best.gainRatio {
			best = c
		}
	}
	if best.gainRatio < 0 {
		return 0, 0, false
	}
	return best.attr, best.threshold, true
}

// attributeSplits lists attribute a's admissible splits of rows in
// ascending threshold order: one between every two adjacent distinct
// values that leaves minLeaf rows on both sides and gains information.
// Equal values are never split apart, so the order the sort leaves them
// in cannot change a candidate.
func attributeSplits(d *Dataset, rows []int, a int, parentCounts []int, parentEntropy float64) []splitCandidate {
	type valueLabel struct {
		v     float64
		label int
	}
	n := len(rows)
	pairs := make([]valueLabel, n)
	for i, r := range rows {
		pairs[i] = valueLabel{d.X[r][a], d.Y[r]}
	}
	slices.SortFunc(pairs, func(x, y valueLabel) int { return cmp.Compare(x.v, y.v) })

	var candidates []splitCandidate
	leftCounts := make([]int, len(parentCounts))
	rightCounts := append([]int(nil), parentCounts...)
	for i := 0; i < n-1; i++ {
		leftCounts[pairs[i].label]++
		rightCounts[pairs[i].label]--
		if pairs[i].v == pairs[i+1].v {
			continue
		}
		nl, nr := i+1, n-i-1
		if nl < minLeaf || nr < minLeaf {
			continue
		}
		pl := float64(nl) / float64(n)
		pr := float64(nr) / float64(n)
		gain := parentEntropy - pl*EntropyOf(leftCounts) - pr*EntropyOf(rightCounts)
		if gain <= 1e-12 {
			continue
		}
		splitInfo := -pl*math.Log2(pl) - pr*math.Log2(pr)
		if splitInfo <= 1e-12 {
			continue
		}
		candidates = append(candidates, splitCandidate{
			attr:      a,
			threshold: (pairs[i].v + pairs[i+1].v) / 2,
			gain:      gain,
			gainRatio: gain / splitInfo,
		})
	}
	return candidates
}

// Predict returns the predicted label for row.
func (t *C45Tree) Predict(row []float64) int {
	label, _ := t.PredictProba(row)
	return label
}

// PredictProba returns the predicted label and the training-distribution
// confidence of the leaf that row falls into.
func (t *C45Tree) PredictProba(row []float64) (int, float64) {
	node := t.root
	for !node.leaf {
		if row[node.attr] <= node.threshold {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node.label, node.probs[node.label]
}

// String renders the tree in an indented J48-like text form.
func (t *C45Tree) String() string {
	var b strings.Builder
	t.render(&b, t.root, 0)
	return b.String()
}

func (t *C45Tree) render(b *strings.Builder, n *c45Node, depth int) {
	indent := strings.Repeat("|   ", depth)
	if n.leaf {
		fmt.Fprintf(b, "%s-> class %d (%.2f)\n", indent, n.label, n.probs[n.label])
		return
	}
	name := fmt.Sprintf("attr%d", n.attr)
	if n.attr < len(t.attributes) {
		name = t.attributes[n.attr]
	}
	fmt.Fprintf(b, "%s%s <= %.4f:\n", indent, name, n.threshold)
	t.render(b, n.left, depth+1)
	fmt.Fprintf(b, "%s%s > %.4f:\n", indent, name, n.threshold)
	t.render(b, n.right, depth+1)
}
