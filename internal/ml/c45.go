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

// C45Config controls decision tree induction.
type C45Config struct {
	// MinLeaf is the minimum number of training rows per leaf
	// (default 2, WEKA J48's -M 2).
	MinLeaf int
	// MaxDepth bounds tree depth; 0 means unbounded.
	MaxDepth int
	// ConfidenceFactor is the pessimistic-pruning confidence
	// (default 0.25, like J48). Pruning is disabled when <= 0 is
	// given and Prune is false.
	ConfidenceFactor float64
	// Prune enables subtree replacement using pessimistic error
	// estimates (default true via NewC45).
	Prune bool
}

// C45Tree is a trained C4.5-style decision tree over continuous
// attributes. Splits are binary: attribute <= threshold.
type C45Tree struct {
	root       *c45Node
	numClasses int
	attributes []string
}

type c45Node struct {
	// Leaf fields.
	leaf       bool
	label      int
	probs      []float64 // class distribution at this node
	nTrain     int
	trainError int // misclassified training rows at this node as leaf

	// Split fields.
	attr      int
	threshold float64
	left      *c45Node // rows with X[attr] <= threshold
	right     *c45Node
}

// NewC45 trains a C4.5 decision tree on a labeled dataset. It returns an
// error when the dataset is empty or unlabeled.
func NewC45(d *Dataset, cfg C45Config) (*C45Tree, error) {
	if d.Len() == 0 {
		return nil, errors.New("ml: cannot train C4.5 on empty dataset")
	}
	numClasses := d.NumClasses()
	if numClasses == 0 {
		return nil, errors.New("ml: dataset has no labels")
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 2
	}
	if cfg.ConfidenceFactor <= 0 {
		cfg.ConfidenceFactor = 0.25
	}
	rows := make([]int, d.Len())
	for i := range rows {
		rows[i] = i
	}
	root := buildC45(d, rows, numClasses, cfg, 0)
	tree := &C45Tree{root: root, numClasses: numClasses, attributes: d.Attributes}
	if cfg.Prune {
		pruneC45(root, cfg.ConfidenceFactor)
	}
	return tree, nil
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

func makeLeaf(counts []int, majority, majorityCount, n int) *c45Node {
	probs := make([]float64, len(counts))
	if n > 0 {
		for c, cnt := range counts {
			probs[c] = float64(cnt) / float64(n)
		}
	}
	return &c45Node{
		leaf:       true,
		label:      majority,
		probs:      probs,
		nTrain:     n,
		trainError: n - majorityCount,
	}
}

func buildC45(d *Dataset, rows []int, numClasses int, cfg C45Config, depth int) *c45Node {
	counts, majority, majorityCount := classDistribution(d, rows, numClasses)
	n := len(rows)

	pure := majorityCount == n
	tooSmall := n < 2*cfg.MinLeaf
	tooDeep := cfg.MaxDepth > 0 && depth >= cfg.MaxDepth
	if pure || tooSmall || tooDeep {
		return makeLeaf(counts, majority, majorityCount, n)
	}

	attr, threshold, ok := bestSplit(d, rows, counts, cfg.MinLeaf)
	if !ok {
		return makeLeaf(counts, majority, majorityCount, n)
	}

	var leftRows, rightRows []int
	for _, r := range rows {
		if d.X[r][attr] <= threshold {
			leftRows = append(leftRows, r)
		} else {
			rightRows = append(rightRows, r)
		}
	}
	if len(leftRows) < cfg.MinLeaf || len(rightRows) < cfg.MinLeaf {
		return makeLeaf(counts, majority, majorityCount, n)
	}

	node := &c45Node{
		attr:       attr,
		threshold:  threshold,
		nTrain:     n,
		label:      majority,
		trainError: n - majorityCount,
	}
	node.probs = make([]float64, numClasses)
	for c, cnt := range counts {
		node.probs[c] = float64(cnt) / float64(n)
	}
	node.left = buildC45(d, leftRows, numClasses, cfg, depth+1)
	node.right = buildC45(d, rightRows, numClasses, cfg, depth+1)
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
func bestSplit(d *Dataset, rows []int, parentCounts []int, minLeaf int) (attr int, threshold float64, ok bool) {
	parentEntropy := EntropyOf(parentCounts)
	perAttr := make([][]splitCandidate, d.NumAttributes())
	workers := 1
	if len(rows) >= parallelSplitRows {
		workers = 0 // GOMAXPROCS
	}
	parallel.Do(workers, len(perAttr), func(a int) {
		perAttr[a] = attributeSplits(d, rows, a, parentCounts, parentEntropy, minLeaf)
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
func attributeSplits(d *Dataset, rows []int, a int, parentCounts []int, parentEntropy float64, minLeaf int) []splitCandidate {
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

// pessimisticErrors implements C4.5's upper confidence bound on the leaf
// error rate (normal approximation to the binomial), scaled to counts.
func pessimisticErrors(errors, n int, cf float64) float64 {
	if n == 0 {
		return 0
	}
	// z for the one-sided confidence factor. J48's default cf=0.25
	// corresponds to z ~= 0.6745.
	z := normalQuantile(1 - cf)
	f := float64(errors) / float64(n)
	nf := float64(n)
	num := f + z*z/(2*nf) + z*math.Sqrt(f/nf-f*f/nf+z*z/(4*nf*nf))
	den := 1 + z*z/nf
	return (num / den) * nf
}

// normalQuantile approximates the standard normal quantile function
// using the Beasley-Springer-Moro rational approximation.
func normalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	dd := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	plow, phigh := 0.02425, 1-0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((dd[0]*q+dd[1])*q+dd[2])*q+dd[3])*q + 1)
	case p <= phigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((dd[0]*q+dd[1])*q+dd[2])*q+dd[3])*q + 1)
	}
}

// pruneC45 performs bottom-up subtree replacement: a split is replaced
// by a leaf when the leaf's pessimistic error does not exceed the sum of
// its children's.
func pruneC45(node *c45Node, cf float64) float64 {
	if node.leaf {
		return pessimisticErrors(node.trainError, node.nTrain, cf)
	}
	childErr := pruneC45(node.left, cf) + pruneC45(node.right, cf)
	leafErr := pessimisticErrors(node.trainError, node.nTrain, cf)
	if leafErr <= childErr+1e-9 {
		node.leaf = true
		node.left, node.right = nil, nil
		return leafErr
	}
	return childErr
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
