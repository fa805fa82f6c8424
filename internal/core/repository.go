package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cloud"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/obs"
)

// InterferenceBucketWidth discretizes the estimated co-located
// contention *fraction* into repository buckets: bucket 0 is no
// interference, each further bucket covers 5% of stolen capacity.
// Bucketing the fraction rather than the raw performance index
// matters: the index shrinks once a compensating allocation deploys,
// while the underlying contention fraction is a property of the
// environment and stays put — so fraction-keyed entries remain valid
// across allocation changes.
const InterferenceBucketWidth = 0.05

// maxInterferenceBucket caps the bucket range (0.9 stolen capacity).
const maxInterferenceBucket = 18

// BucketForFraction maps an estimated contention fraction in [0, 1)
// to a repository bucket.
func BucketForFraction(fraction float64) int {
	if fraction <= 0 {
		return 0
	}
	b := int(math.Ceil(fraction / InterferenceBucketWidth))
	if b > maxInterferenceBucket {
		b = maxInterferenceBucket
	}
	return b
}

// Repository is the DejaVu cache: workload signatures along with their
// preferred resource allocations, keyed by workload class and
// interference bucket (paper §3.4, §3.6). Lookups classify the
// incoming signature and report a certainty level; low certainty means
// the workload "has changed over time and the current clustering is no
// longer relevant".
//
// The repository is safe for concurrent use by many controllers (the
// fleet control plane shares one repository across every VM of a
// service template): the learned artifacts — standardizer, classifier,
// centroids, novelty radii — are immutable after construction, so
// Classify runs lock-free; the allocation entries are an immutable map
// behind an atomic pointer, copied on Put, so Get is one atomic load
// and a map read; and the hit/miss statistics are atomic counters.
type Repository struct {
	// events is the signature metric tuple (ordered).
	events []metrics.Event
	// standardizer maps raw signatures into the learned feature
	// space.
	standardizer *ml.Standardizer
	// classifier assigns signatures to workload classes.
	classifier ml.Classifier
	// centroids are the class centroids in standardized space.
	centroids [][]float64
	// noveltyRadius is the per-class maximum training distance to
	// the centroid, inflated by a tolerance; signatures farther from
	// every centroid are unforeseen workloads.
	noveltyRadius []float64
	// entries points at the current (class, interference bucket) ->
	// allocation map. A published map is never written again: Put
	// copies it under putMu and publishes the copy. Entries number
	// classes × at most 19 buckets and arrive at learn time and on the
	// first sight of an interference bucket, so copies are small and
	// rare while reads are every lookup of every controller.
	entries atomic.Pointer[map[repoKey]cloud.Allocation]
	putMu   sync.Mutex
	// certaintyThreshold is the minimum classifier confidence for a
	// cache hit.
	certaintyThreshold float64
	// rowPool recycles standardize scratch rows so concurrent Classify
	// calls stay allocation-free; entries are *[]float64 of signature
	// width.
	rowPool sync.Pool
	// stats: one atomic add per lookup, each counter on its own cache
	// line.
	hits, misses obs.Counter
}

// repoKey is an entry's (class, interference bucket). Its 32-bit
// halves make it one 8-byte word, which the runtime's map hashes and
// compares on its fast path.
type repoKey struct {
	class  int32
	bucket int32
}

// keyFor returns the entry key of (class, bucket), and false for a pair
// no entry can have: a value that does not fit its half of the key.
func keyFor(class, bucket int) (repoKey, bool) {
	k := repoKey{int32(class), int32(bucket)}
	return k, int(k.class) == class && int(k.bucket) == bucket
}

// LookupResult is the outcome of a repository lookup.
type LookupResult struct {
	// Class is the matched workload class (-1 on novelty rejection).
	Class int
	// Certainty is the classifier confidence in [0, 1].
	Certainty float64
	// Allocation is the cached preferred allocation; valid only when
	// Hit is true.
	Allocation cloud.Allocation
	// Hit reports whether a usable cached allocation was found.
	Hit bool
	// Unforeseen reports whether the signature looks unlike every
	// learned class (novelty or low certainty).
	Unforeseen bool
}

// NewRepository assembles a repository from learned artifacts. The
// certainty threshold defaults to 0.6 when zero.
func NewRepository(events []metrics.Event, std *ml.Standardizer, clf ml.Classifier,
	centroids [][]float64, noveltyRadius []float64, certaintyThreshold float64) (*Repository, error) {
	if len(events) == 0 {
		return nil, errors.New("core: repository needs signature events")
	}
	if std == nil || clf == nil {
		return nil, errors.New("core: repository needs standardizer and classifier")
	}
	if len(centroids) == 0 || len(centroids) != len(noveltyRadius) {
		return nil, fmt.Errorf("core: %d centroids but %d novelty radii", len(centroids), len(noveltyRadius))
	}
	if certaintyThreshold == 0 {
		certaintyThreshold = 0.6
	}
	width := len(events)
	r := &Repository{
		events:             append([]metrics.Event(nil), events...),
		standardizer:       std,
		classifier:         clf,
		centroids:          centroids,
		noveltyRadius:      append([]float64(nil), noveltyRadius...),
		certaintyThreshold: certaintyThreshold,
	}
	r.rowPool.New = func() any {
		row := make([]float64, width)
		return &row
	}
	r.entries.Store(&map[repoKey]cloud.Allocation{})
	return r, nil
}

// Events returns a copy of the signature metric tuple.
func (r *Repository) Events() []metrics.Event {
	return append([]metrics.Event(nil), r.events...)
}

// EventsRef returns the signature metric tuple without copying. The
// slice is immutable after construction; callers must treat it as
// read-only. Hot loops use it so repeated profiling rounds share one
// event tuple (which also keys the profiler's monitor cache).
func (r *Repository) EventsRef() []metrics.Event { return r.events }

// Classes returns the number of workload classes.
func (r *Repository) Classes() int { return len(r.centroids) }

// Put stores the preferred allocation for a (class, interference
// bucket) pair; the Tuner populates bucket 0 during learning and the
// runtime controller adds interference buckets on demand.
func (r *Repository) Put(class, bucket int, alloc cloud.Allocation) error {
	return r.putAll([]Entry{{Class: class, Bucket: bucket, Allocation: alloc}})
}

// putAll validates and stores a set of entries as one copy of the map
// and one publish: all of them or, on the first invalid one, none.
func (r *Repository) putAll(entries []Entry) error {
	for _, e := range entries {
		if e.Class < 0 || e.Class >= len(r.centroids) {
			return fmt.Errorf("core: class %d out of range", e.Class)
		}
		if e.Bucket < 0 {
			return fmt.Errorf("core: negative interference bucket %d", e.Bucket)
		}
		if _, ok := keyFor(e.Class, e.Bucket); !ok {
			return fmt.Errorf("core: interference bucket %d out of range", e.Bucket)
		}
		if err := e.Allocation.Validate(); err != nil {
			return err
		}
	}
	r.putMu.Lock()
	defer r.putMu.Unlock()
	old := *r.entries.Load()
	next := make(map[repoKey]cloud.Allocation, len(old)+len(entries))
	for k, v := range old {
		next[k] = v
	}
	for _, e := range entries {
		k, _ := keyFor(e.Class, e.Bucket)
		next[k] = e.Allocation
	}
	r.entries.Store(&next)
	return nil
}

// Get returns the cached allocation for (class, bucket) without
// classification.
func (r *Repository) Get(class, bucket int) (cloud.Allocation, bool) {
	k, ok := keyFor(class, bucket)
	if !ok {
		return cloud.Allocation{}, false
	}
	a, ok := (*r.entries.Load())[k]
	return a, ok
}

// Classify standardizes the signature and runs the classifier plus the
// novelty check, without touching the allocation entries.
func (r *Repository) Classify(sig *Signature) (class int, certainty float64, unforeseen bool, err error) {
	if err := r.check(sig); err != nil {
		return 0, 0, false, err
	}
	rowPtr := r.rowPool.Get().(*[]float64)
	class, certainty, unforeseen = r.classifyRow(*rowPtr, sig.Values)
	r.rowPool.Put(rowPtr)
	return class, certainty, unforeseen, nil
}

// check rejects a signature no lookup may serve: an invalid one, or one
// not of the repository's width.
func (r *Repository) check(sig *Signature) error {
	if err := sig.Validate(); err != nil {
		return err
	}
	if len(sig.Values) != len(r.events) {
		return fmt.Errorf("core: signature width %d, repository expects %d", len(sig.Values), len(r.events))
	}
	return nil
}

// classifyRow is the classify kernel every lookup path shares: it
// standardizes values (of signature width) into scratch, classifies the
// row, and applies the novelty and certainty checks.
func (r *Repository) classifyRow(scratch, values []float64) (class int, certainty float64, unforeseen bool) {
	r.standardizer.TransformInto(scratch, values)
	class, certainty = r.classifier.PredictProba(scratch)

	// Novelty: distance to the nearest centroid must be within the
	// learned radius. This catches workloads like the HotMail day-4
	// surge whose volume exceeds everything seen during learning.
	// The argmin runs on squared distances — same accumulation order,
	// and sqrt is monotone, so the winner (and first-wins tie) is the
	// one EuclideanDistance would pick — deferring the sqrt to the
	// single radius comparison.
	minDsq, nearest := math.Inf(1), -1
	for c, centroid := range r.centroids {
		if d := ml.SquaredDistance(scratch, centroid); d < minDsq {
			minDsq, nearest = d, c
		}
	}
	if nearest >= 0 && math.Sqrt(minDsq) > r.noveltyRadius[nearest] {
		return class, certainty, true
	}
	return class, certainty, certainty < r.certaintyThreshold
}

// lookupRow turns one classified row into its lookup result against
// one entries snapshot.
func lookupRow(entries map[repoKey]cloud.Allocation, class int, certainty float64, unforeseen bool, bucket int) LookupResult {
	res := LookupResult{Class: class, Certainty: certainty, Unforeseen: unforeseen}
	if unforeseen {
		res.Class = -1
		return res
	}
	if k, ok := keyFor(class, bucket); ok {
		res.Allocation, res.Hit = entries[k]
	}
	return res
}

// lookup is the lookup kernel Lookup and WorkerSource share: classify
// a checked signature's values in scratch and look the class up in the
// current entries.
func (r *Repository) lookup(scratch, values []float64, bucket int) LookupResult {
	class, certainty, unforeseen := r.classifyRow(scratch, values)
	return lookupRow(*r.entries.Load(), class, certainty, unforeseen, bucket)
}

// Lookup is the cache lookup: classify the signature and fetch the
// allocation for the given interference bucket. A miss on the exact
// bucket with a hit on bucket 0 reports Hit=false but still returns
// the class, letting the controller tune for the new interference
// level and Put the result.
func (r *Repository) Lookup(sig *Signature, bucket int) (LookupResult, error) {
	if err := r.check(sig); err != nil {
		return LookupResult{}, err
	}
	rowPtr := r.rowPool.Get().(*[]float64)
	res := r.lookup(*rowPtr, sig.Values, bucket)
	r.rowPool.Put(rowPtr)
	if res.Hit {
		r.hits.Inc()
	} else {
		r.misses.Inc()
	}
	return res, nil
}

// LookupRows is Lookup over rows that share a bucket, served in one
// pass: rows[i] holds a signature's values in Events() order and its
// result lands in out[i]. Every row's width is checked before any is
// served, so a rejected batch counts nothing. The batch then takes one
// scratch row, one entries snapshot and one add to each counter,
// where Lookup pays each of them per row; every row gets exactly the
// result Lookup would give it against that snapshot.
func (r *Repository) LookupRows(bucket int, rows [][]float64, out []LookupResult) error {
	if len(out) < len(rows) {
		return fmt.Errorf("core: %d results for %d rows", len(out), len(rows))
	}
	for i, row := range rows {
		if len(row) != len(r.events) {
			return fmt.Errorf("core: signature %d width %d, repository expects %d", i, len(row), len(r.events))
		}
	}
	if len(rows) == 0 {
		return nil
	}
	rowPtr := r.rowPool.Get().(*[]float64)
	entries := *r.entries.Load()
	var hits int64
	for i, row := range rows {
		class, certainty, unforeseen := r.classifyRow(*rowPtr, row)
		out[i] = lookupRow(entries, class, certainty, unforeseen, bucket)
		if out[i].Hit {
			hits++
		}
	}
	r.rowPool.Put(rowPtr)
	r.hits.Add(hits)
	r.misses.Add(int64(len(rows)) - hits)
	return nil
}

// HitRate returns the fraction of lookups that were cache hits.
func (r *Repository) HitRate() float64 {
	hits := r.hits.Load()
	total := hits + r.misses.Load()
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// LookupCounts returns the raw (hits, misses) counters; under
// concurrent lookups the two loads are individually atomic but not
// mutually consistent — exact totals require external quiescence.
func (r *Repository) LookupCounts() (hits, misses int64) {
	return r.hits.Load(), r.misses.Load()
}

// Entries returns a stable snapshot of the cached allocations, sorted
// by class then bucket, for reports.
type Entry struct {
	Class      int
	Bucket     int
	Allocation cloud.Allocation
}

// Len returns the number of cached allocations.
func (r *Repository) Len() int { return len(*r.entries.Load()) }

// Snapshot returns all entries sorted by (class, bucket): one
// consistent view, whatever Puts run beside it.
func (r *Repository) Snapshot() []Entry {
	entries := *r.entries.Load()
	out := make([]Entry, 0, len(entries))
	for k, v := range entries {
		out = append(out, Entry{Class: int(k.class), Bucket: int(k.bucket), Allocation: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return out[i].Bucket < out[j].Bucket
	})
	return out
}
