package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/obs"
	"repro/internal/services"
)

// SharedTuningCache realizes the paper's closing direction: "an
// application can significantly benefit from its own resource
// allocation experience ... we believe that it can benefit from the
// experience of other cloud tenants as well" (§6).
//
// It wraps a Tuner with a cross-tenant memo keyed by the quantized
// operating point (offered load per unit of the service's capacity
// grain, request-mix name, interference bucket). Tenants running the
// same service template share the cache, so the second tenant's
// learning phase reuses the first tenant's experiments instead of
// re-running them.
//
// The steady state at fleet scale is every tenant hitting a fully warm
// cache, so the lookup path takes only a read lock and one atomic
// counter add — concurrent controllers sharing one template never
// serialize on a write lock. Misses (rare, and each worth minutes of
// tuning) pay for the write lock.
type SharedTuningCache struct {
	mu      sync.RWMutex
	entries map[sharedKey]cloud.Allocation
	hits    obs.Counter
	misses  obs.Counter
}

type sharedKey struct {
	service    string
	mix        string
	loadBucket int
	interfB    int
}

// sharedLoadGrain quantizes offered load; allocations are integral, so
// nearby loads share an optimum. The grain is a fraction of one
// capacity unit's client budget.
const sharedLoadGrain = 0.25

// NewSharedTuningCache returns an empty cross-tenant cache.
func NewSharedTuningCache() *SharedTuningCache {
	return &SharedTuningCache{entries: make(map[sharedKey]cloud.Allocation)}
}

// Hits and Misses report cache effectiveness.
func (s *SharedTuningCache) Hits() int { return int(s.hits.Load()) }

// Misses reports how many lookups fell through to a real tuner.
func (s *SharedTuningCache) Misses() int { return int(s.misses.Load()) }

// SharedTuner is the per-tenant view of the shared cache: a Tuner that
// consults the memo before delegating to the tenant's own tuner.
type SharedTuner struct {
	cache   *SharedTuningCache
	service services.Service
	inner   Tuner

	lastWasHit bool
}

// NewSharedTuner wraps a tenant's tuner with the shared cache.
func NewSharedTuner(cache *SharedTuningCache, svc services.Service, inner Tuner) (*SharedTuner, error) {
	t := new(SharedTuner)
	if err := t.Reset(cache, svc, inner); err != nil {
		return nil, err
	}
	return t, nil
}

// Reset re-initializes t in place as the tuner NewSharedTuner builds
// for the same arguments, so a caller that wraps many tenants' tuners
// in sequence (the fleet's workers) reuses one.
func (t *SharedTuner) Reset(cache *SharedTuningCache, svc services.Service, inner Tuner) error {
	if cache == nil || svc == nil || inner == nil {
		return errors.New("core: shared tuner needs cache, service, and inner tuner")
	}
	*t = SharedTuner{cache: cache, service: svc, inner: inner}
	return nil
}

func (t *SharedTuner) key(w services.Workload, interference float64) sharedKey {
	grain := t.service.ClientsPerUnit() * sharedLoadGrain
	bucket := 0
	if grain > 0 {
		bucket = int(math.Ceil(w.Clients / grain))
	}
	return sharedKey{
		service:    t.service.Name(),
		mix:        w.Mix.Name,
		loadBucket: bucket,
		interfB:    BucketForFraction(interference),
	}
}

// Tune implements Tuner: a shared-cache hit costs nothing; a miss runs
// the inner tuner and publishes the result for every other tenant.
func (t *SharedTuner) Tune(w services.Workload, interference float64) (cloud.Allocation, error) {
	if interference < 0 || interference >= 1 {
		return cloud.Allocation{}, fmt.Errorf("core: interference %v out of [0,1)", interference)
	}
	key := t.key(w, interference)
	t.cache.mu.RLock()
	alloc, ok := t.cache.entries[key]
	t.cache.mu.RUnlock()
	if ok {
		t.cache.hits.Inc()
		t.lastWasHit = true
		return alloc, nil
	}
	t.cache.misses.Inc()

	// Check-then-act, as before the read/write split: two tenants
	// racing on a cold key both tune and both publish — the tuner is
	// deterministic for a given key, so the second Put overwrites the
	// first with an identical value.
	alloc, err := t.inner.Tune(w, interference)
	if err != nil {
		return cloud.Allocation{}, err
	}
	t.lastWasHit = false
	t.cache.mu.Lock()
	t.cache.entries[key] = alloc
	t.cache.mu.Unlock()
	return alloc, nil
}

// Duration implements Tuner: zero after a shared-cache hit, the inner
// tuner's cost otherwise.
func (t *SharedTuner) Duration() time.Duration {
	if t.lastWasHit {
		return 0
	}
	return t.inner.Duration()
}

var _ Tuner = (*SharedTuner)(nil)
