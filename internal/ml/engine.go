package ml

import (
	"math"
	"math/rand"
)

// kmEngine runs single k-means restarts over one dense Matrix. All
// scratch (centroids, bounds, per-cluster sums) lives on the engine
// and is reused across runs, so a worker that claims many restarts
// allocates once; only the returned KMeansResult is fresh memory.
//
// The assignment step uses Hamerly's accelerated exact k-means: per
// point it keeps an upper bound on the distance to its assigned
// centroid and a lower bound on the distance to the second-closest
// one, both adjusted by centroid movement after every update step.
// A point whose upper bound stays below both its lower bound and half
// the distance from its centroid to the nearest other centroid cannot
// change cluster, so it is skipped without computing a distance.
//
// Two more exact prunings carry the regime that costs the time — k
// above the number of true blobs, where one blob is split between two
// centroids that trade its points for tens of iterations while every
// other cluster sits still:
//
//   - A centroid is recomputed only when its membership changed since
//     the last update. Its sum adds the same rows in the same index
//     order as a full recomputation, so a touched centroid gets the
//     same floats, and an untouched one keeps its value and reports
//     zero movement — which is what recomputing it would have found.
//   - A point whose bounds fail is compared only with the centroids o
//     that can be as close as its own: those with dist(cur, o) ≤
//     2·d(x, cur), read from a k×k centroid-distance table built once
//     per iteration (the table's row minima are Hamerly's half[]).
//     Every other o has d(x, o) ≥ dist(cur, o) − d(x, cur) > d(x, cur)
//     by the triangle inequality, so it is neither the nearest
//     centroid nor a tie; the smallest such difference stands in for
//     the skipped centroids in the new lower bound.
//
// The lower bound also shrinks by the largest movement among the
// *other* centroids rather than the largest overall. All comparisons
// that skip work are strict and all stored bounds are rounded outward
// (boundSlack), so a point equidistant from two centroids is always
// settled by the first-minimum scan order the naive path uses. Pruned
// and naive runs therefore yield bit-identical assignments, centroids,
// inertia and iteration counts on the same derived RNG stream
// (TestPrunedMatchesNaive, TestEngineExactOnAdaptShapedDraw,
// TestEngineExactOnTies). Empty clusters are re-seeded from a random
// row on every update exactly like the naive path, consuming the
// identical RNG draws.
type kmEngine struct {
	m *Matrix

	centroids []float64 // k×d, current centroids
	prev      []float64 // k×d, centroids before the last update
	sums      []float64 // k×d, accumulation scratch
	counts    []int     // k, cluster sizes
	dirty     []bool    // k, membership changed since the last update
	moved     []float64 // k, centroid movement after the last update
	cc        []float64 // k×k, centroid-to-centroid distances
	half      []float64 // k, half distance to the nearest other centroid
	shrink    []float64 // k, largest movement among the other centroids
	assign    []int     // n
	ub, lb    []float64 // n, Hamerly bounds
	minDist   []float64 // n, k-means++ seeding scratch
}

func newKMEngine(m *Matrix) *kmEngine {
	n := m.Rows
	return &kmEngine{
		m:       m,
		assign:  make([]int, n),
		ub:      make([]float64, n),
		lb:      make([]float64, n),
		minDist: make([]float64, n),
	}
}

// ensure sizes the per-cluster scratch for k clusters.
func (e *kmEngine) ensure(k int) {
	need := k * e.m.Cols
	if cap(e.centroids) < need {
		e.centroids = make([]float64, need)
		e.prev = make([]float64, need)
		e.sums = make([]float64, need)
	}
	if cap(e.counts) < k {
		e.counts = make([]int, k)
		e.dirty = make([]bool, k)
		e.moved = make([]float64, k)
		e.cc = make([]float64, k*k)
		e.half = make([]float64, k)
		e.shrink = make([]float64, k)
	}
	e.centroids = e.centroids[:need]
	e.prev = e.prev[:need]
	e.sums = e.sums[:need]
	e.counts = e.counts[:k]
	e.dirty = e.dirty[:k]
	e.moved = e.moved[:k]
	e.cc = e.cc[:k*k]
	e.half = e.half[:k]
	e.shrink = e.shrink[:k]
}

func (e *kmEngine) centroid(c int) []float64 {
	d := e.m.Cols
	return e.centroids[c*d : (c+1)*d]
}

// seed runs k-means++ seeding. Unlike the reference implementation it
// maintains each row's distance to the nearest chosen centroid
// incrementally (O(n·k·d) instead of O(n·k²·d)), but it consumes the
// same RNG draws and computes the same floating-point values, so the
// chosen centroids are bit-identical to seedPlusPlusRef's.
func (e *kmEngine) seed(k int, rng *rand.Rand) {
	n, d := e.m.Rows, e.m.Cols
	copy(e.centroids[:d], e.m.Row(rng.Intn(n)))
	if k == 1 {
		return
	}
	first := e.centroids[:d]
	for i := 0; i < n; i++ {
		e.minDist[i] = SquaredDistance(e.m.Row(i), first)
	}
	for c := 1; c < k; c++ {
		total := 0.0
		for i := 0; i < n; i++ {
			total += e.minDist[i]
		}
		var idx int
		if total == 0 {
			// All points coincide with existing centroids; pick
			// uniformly to keep going.
			idx = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			acc := 0.0
			idx = n - 1
			for i := 0; i < n; i++ {
				acc += e.minDist[i]
				if acc >= target {
					idx = i
					break
				}
			}
		}
		next := e.centroids[c*d : (c+1)*d]
		copy(next, e.m.Row(idx))
		if c+1 < k {
			for i := 0; i < n; i++ {
				if sq := SquaredDistance(e.m.Row(i), next); sq < e.minDist[i] {
					e.minDist[i] = sq
				}
			}
		}
	}
}

// boundSlack is the relative margin by which every stored bound is
// rounded away from the distance it bounds. A computed distance carries
// a relative rounding error of about (d+2)·2⁻⁵³, and a bound adds or
// subtracts a computed movement once per iteration; without the margin
// a bound can end a few ulps on the wrong side of the distance, and a
// point that is exactly as far from a second centroid — rows that
// repeat, centroids re-seeded onto each other — is kept where the
// exhaustive scan would move it. 10⁻⁹ dwarfs the error for any d below
// a few million and costs the pruning nothing measurable.
const boundSlack = 1e-9

// above and below round a non-negative bound up and down by
// boundSlack. (A negative lower bound proves nothing either way.)
func above(x float64) float64 { return x * (1 + boundSlack) }
func below(x float64) float64 { return x * (1 - boundSlack) }

// scanPoint exhaustively finds the nearest and second-nearest centroid
// of row (first minimum on ties, like the naive path).
func (e *kmEngine) scanPoint(row []float64, k int) (best int, bestSq, secondSq float64) {
	bestSq, secondSq = math.Inf(1), math.Inf(1)
	for c := 0; c < k; c++ {
		sq := SquaredDistance(row, e.centroid(c))
		if sq < bestSq {
			secondSq = bestSq
			best, bestSq = c, sq
		} else if sq < secondSq {
			secondSq = sq
		}
	}
	return best, bestSq, secondSq
}

// scanNear is scanPoint for a row whose distance to its current
// centroid cur is already known (curSq, and du = √curSq rounded up): it
// evaluates only the centroids within 2·du of cur — no other can be as
// close to the row as cur is — in the same index order and with the
// same first-minimum rule, so it names the centroid scanPoint would.
// lower bounds the row's distance to every centroid but best: the
// second-smallest distance evaluated, or the triangle bound on the
// nearest centroid skipped, whichever is smaller.
func (e *kmEngine) scanNear(row []float64, k, cur int, curSq, du float64) (best int, bestSq, lower float64) {
	bestSq, secondSq := math.Inf(1), math.Inf(1)
	skipped := math.Inf(1)
	reach := 2 * du
	for o, sep := range e.cc[cur*k : (cur+1)*k] {
		sq := curSq
		if o != cur {
			if sep > reach {
				if sep < skipped {
					skipped = sep
				}
				continue
			}
			sq = SquaredDistance(row, e.centroid(o))
		}
		if sq < bestSq {
			secondSq = bestSq
			best, bestSq = o, sq
		} else if sq < secondSq {
			secondSq = sq
		}
	}
	lower = math.Sqrt(secondSq)
	if s := skipped - du; s < lower {
		lower = s
	}
	return best, bestSq, below(lower)
}

// move reassigns row i to cluster c, keeping the cluster sizes current
// and marking both clusters for recomputation.
func (e *kmEngine) move(i, c int) {
	if old := e.assign[i]; old >= 0 {
		e.counts[old]--
		e.dirty[old] = true
	}
	e.counts[c]++
	e.dirty[c] = true
	e.assign[i] = c
}

// update recomputes the centroid of every cluster whose membership
// changed as the mean of its members, re-seeds every empty cluster from
// a random row (preserving k; one draw per empty cluster per update, in
// cluster order) and, when pruned, records how far each centroid moved
// and, per cluster, how far any other did (shrink, rounded up): how much
// closer another centroid can have come to one of its points. The naive
// path recomputes every cluster, which keeps it an independent check on
// the skipping.
func (e *kmEngine) update(k int, rng *rand.Rand, pruned bool) {
	n, d := e.m.Rows, e.m.Cols
	if pruned {
		copy(e.prev, e.centroids)
	}
	for c := 0; c < k; c++ {
		if !pruned {
			e.dirty[c] = true
		}
		if e.dirty[c] {
			sum := e.sums[c*d : (c+1)*d]
			for j := range sum {
				sum[j] = 0
			}
		}
	}
	for i := 0; i < n; i++ {
		c := e.assign[i]
		if !e.dirty[c] {
			continue
		}
		sum := e.sums[c*d : (c+1)*d]
		for j, v := range e.m.Row(i) {
			sum[j] += v
		}
	}
	for c := 0; c < k; c++ {
		cent := e.centroid(c)
		switch {
		case e.counts[c] == 0:
			copy(cent, e.m.Row(rng.Intn(n)))
		case e.dirty[c]:
			inv := float64(e.counts[c])
			sum := e.sums[c*d : (c+1)*d]
			for j := range cent {
				cent[j] = sum[j] / inv
			}
		default:
			e.moved[c] = 0
			continue
		}
		e.dirty[c] = false
		if pruned {
			e.moved[c] = math.Sqrt(SquaredDistance(cent, e.prev[c*d:(c+1)*d]))
		}
	}
	if !pruned {
		return
	}
	top, second := 0.0, 0.0 // the two largest movements
	for _, mv := range e.moved {
		if mv > top {
			top, second = mv, top
		} else if mv > second {
			second = mv
		}
	}
	for c, mv := range e.moved {
		e.shrink[c] = above(top)
		if mv == top {
			e.shrink[c] = above(second)
		}
	}
}

// centroidDistances fills the k×k table cc[c·k+o] with dist(c, o),
// rounded down, and half[c] = ½·min_{o≠c} cc[c·k+o], the Hamerly
// centroid-separation bound.
func (e *kmEngine) centroidDistances(k int) {
	for c := 0; c < k; c++ {
		e.cc[c*k+c] = 0
		cent := e.centroid(c)
		for o := c + 1; o < k; o++ {
			sep := below(math.Sqrt(SquaredDistance(cent, e.centroid(o))))
			e.cc[c*k+o] = sep
			e.cc[o*k+c] = sep
		}
	}
	for c := 0; c < k; c++ {
		nearest := math.Inf(1)
		for o, sep := range e.cc[c*k : (c+1)*k] {
			if o != c && sep < nearest {
				nearest = sep
			}
		}
		e.half[c] = 0.5 * nearest
	}
}

// run executes one seeded k-means restart and returns a self-contained
// result (the engine's scratch is reused by the next run).
func (e *kmEngine) run(k, maxIter int, rng *rand.Rand, pruned bool) *KMeansResult {
	n := e.m.Rows
	e.ensure(k)
	e.seed(k, rng)
	for i := range e.assign {
		e.assign[i] = -1
	}
	for c := 0; c < k; c++ {
		e.counts[c] = 0
		e.dirty[c] = false
	}

	iters := 0
	for ; iters < maxIter; iters++ {
		changed := false
		if !pruned || iters == 0 {
			// Exhaustive pass: the naive path every iteration, the
			// pruned path only on the first (which also initializes
			// the bounds).
			for i := 0; i < n; i++ {
				best, bestSq, secondSq := e.scanPoint(e.m.Row(i), k)
				if best != e.assign[i] {
					e.move(i, best)
					changed = true
				}
				if pruned {
					e.ub[i] = above(math.Sqrt(bestSq))
					e.lb[i] = below(math.Sqrt(secondSq))
				}
			}
		} else {
			e.centroidDistances(k)
			for i := 0; i < n; i++ {
				// The last update moved the centroids: the point's own
				// came at most moved[cur] closer or farther, any other
				// at most shrink[cur] closer.
				cur := e.assign[i]
				ub := above(e.ub[i] + e.moved[cur])
				lb := below(e.lb[i] - e.shrink[cur])
				e.ub[i], e.lb[i] = ub, lb
				bound := lb
				if h := e.half[cur]; h > bound {
					bound = h
				}
				if ub < bound {
					continue
				}
				// Tighten the upper bound to the true distance and
				// re-test before paying for the scan.
				row := e.m.Row(i)
				curSq := SquaredDistance(row, e.centroid(cur))
				ub = above(math.Sqrt(curSq))
				e.ub[i] = ub
				if ub < bound {
					continue
				}
				best, bestSq, lower := e.scanNear(row, k, cur, curSq, ub)
				if best != cur {
					e.move(i, best)
					changed = true
					e.ub[i] = above(math.Sqrt(bestSq))
				}
				e.lb[i] = lower
			}
		}
		if !changed && iters > 0 {
			break
		}
		e.update(k, rng, pruned)
	}

	inertia := 0.0
	for i := 0; i < n; i++ {
		inertia += SquaredDistance(e.m.Row(i), e.centroid(e.assign[i]))
	}

	centroids := make([][]float64, k)
	for c := 0; c < k; c++ {
		centroids[c] = append([]float64(nil), e.centroid(c)...)
	}
	return &KMeansResult{
		K:           k,
		Centroids:   centroids,
		Assignments: append([]int(nil), e.assign...),
		Inertia:     inertia,
		Iterations:  iters,
	}
}
