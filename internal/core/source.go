package core

import (
	"errors"

	"repro/internal/cloud"
	"repro/internal/metrics"
)

// DecisionSource is everything a runtime controller needs from the
// decision plane: the signature vocabulary, classify-and-lookup over
// it, and the miss path's read/write entry access. Four
// implementations exist — *Handle serves from an in-process versioned
// repository, repositorySource from a bare *Repository (behind
// ControllerConfig.Repository), *WorkerSource from a bare *Repository
// for one goroutine, and internal/client's TemplateSource forwards over
// the wire to a remote dejavud — so the same controller code drives
// every deployment shape, and a fleet can switch between them with a
// flag (dejavu-sim -fleet N -remote addr).
//
// Implementations other than WorkerSource must be safe for concurrent
// use: a fleet shares one remote source across every VM of a service
// template.
type DecisionSource interface {
	// Events returns the signature metric tuple. Callers must treat
	// the slice as read-only; it is fetched once per controller and
	// reused across profiling rounds.
	Events() []metrics.Event
	// Lookup classifies the signature and fetches the cached
	// allocation for the interference bucket. A source that answers
	// later returns ErrParked; see Controller.Step.
	Lookup(sig *Signature, bucket int) (LookupResult, error)
	// Get fetches a cached allocation by (class, bucket) without
	// classification — the interference path's direct probe.
	Get(class, bucket int) (cloud.Allocation, bool, error)
	// Put stores a tuned allocation for every peer to reuse.
	Put(class, bucket int, alloc cloud.Allocation) error
}

// ErrParked is a DecisionSource's "no answer yet" from Lookup, returned
// as is, never wrapped. The signature's values stay the caller's until
// it calls Lookup again with the same signature and bucket, which is
// when the source answers. The fleet's lockstep blocks return it to
// collect a block's signatures into one frame while every VM's run is
// parked (sim.ErrParked).
var ErrParked = errors.New("core: lookup parked")

// BatchSource is the optional batch capability of a DecisionSource
// whose Lookup pays a fixed per-call cost worth sharing — a wire round
// trip. A caller holding several signatures for one interference bucket
// (the fleet's lockstep blocks) checks for it with a type assertion and
// sends them as one call; sources without it are driven row by row.
type BatchSource interface {
	DecisionSource
	// LookupRows is Lookup over rows that share a bucket: rows[i] is a
	// signature's values in Events() order and its decision lands in
	// out[i] (len(out) >= len(rows)). An error fails the whole batch.
	LookupRows(bucket int, rows [][]float64, out []LookupResult) error
}

// Handle's DecisionSource: every call serves from the live snapshot,
// so a background relearn swap is picked up by the next call without
// any controller involvement.

// Events implements DecisionSource.
func (h *Handle) Events() []metrics.Event { return h.Current().Repo.EventsRef() }

// Lookup implements DecisionSource.
func (h *Handle) Lookup(sig *Signature, bucket int) (LookupResult, error) {
	return h.Current().Repo.Lookup(sig, bucket)
}

// Get implements DecisionSource.
func (h *Handle) Get(class, bucket int) (cloud.Allocation, bool, error) {
	alloc, ok := h.Current().Repo.Get(class, bucket)
	return alloc, ok, nil
}

// Put implements DecisionSource.
func (h *Handle) Put(class, bucket int, alloc cloud.Allocation) error {
	return h.Current().Repo.Put(class, bucket, alloc)
}

var _ DecisionSource = (*Handle)(nil)

// repositorySource adapts a bare *Repository to DecisionSource for
// the historical ControllerConfig.Repository path. Unlike a Handle it
// is pinned to one repository value; ReplaceRepository swaps the
// controller's whole source.
type repositorySource struct{ repo *Repository }

func (r repositorySource) Events() []metrics.Event { return r.repo.EventsRef() }

func (r repositorySource) Lookup(sig *Signature, bucket int) (LookupResult, error) {
	return r.repo.Lookup(sig, bucket)
}

func (r repositorySource) Get(class, bucket int) (cloud.Allocation, bool, error) {
	alloc, ok := r.repo.Get(class, bucket)
	return alloc, ok, nil
}

func (r repositorySource) Put(class, bucket int, alloc cloud.Allocation) error {
	return r.repo.Put(class, bucket, alloc)
}

// SourceForRepository wraps a repository as a DecisionSource.
func SourceForRepository(repo *Repository) (DecisionSource, error) {
	if repo == nil {
		return nil, errors.New("core: nil repository")
	}
	return repositorySource{repo: repo}, nil
}

// WorkerSource is a repository's DecisionSource for one goroutine: its
// lookups classify in a standardize row of its own and tally hits and
// misses privately, where Repository.Lookup takes a pooled row and adds
// to the repository's shared counters on every call. Flush adds the
// tallies to those counters, once the goroutine's work is done — the
// fleet's workers each hold one per template and flush when they have
// joined. Get and Put go straight to the repository, so peers still see
// every stored allocation at once.
//
// A WorkerSource is not safe for concurrent use, the one exception to
// DecisionSource's rule: it belongs to the goroutine that looks up
// through it.
type WorkerSource struct {
	repositorySource // Events, Get and Put
	row              []float64
	hits, misses     int64
}

// NewWorkerSource returns a source over repo for a single goroutine.
func NewWorkerSource(repo *Repository) *WorkerSource {
	return &WorkerSource{repositorySource: repositorySource{repo}, row: make([]float64, len(repo.events))}
}

// Lookup implements DecisionSource: exactly Repository.Lookup's result,
// with the hit or miss tallied until Flush.
func (s *WorkerSource) Lookup(sig *Signature, bucket int) (LookupResult, error) {
	if err := s.repo.check(sig); err != nil {
		return LookupResult{}, err
	}
	res := s.repo.lookup(s.row, sig.Values, bucket)
	if res.Hit {
		s.hits++
	} else {
		s.misses++
	}
	return res, nil
}

// Flush adds the hits and misses tallied since the last Flush to the
// repository's counters (Repository.LookupCounts).
func (s *WorkerSource) Flush() {
	s.repo.hits.Add(s.hits)
	s.repo.misses.Add(s.misses)
	s.hits, s.misses = 0, 0
}
