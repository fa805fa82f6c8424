package fleet

import (
	"sync"

	"repro/internal/sim"
)

// stepArena hands out per-VM step-record slots for the run phase. The
// original fixed-fleet arena was a single slab with precomputed
// offsets; dynamic membership (VMs joining and leaving mid-run) breaks
// that layout, so the arena enforces two churn-safety invariants
// instead:
//
//  1. blocks are never grown in place — when a shard's current block
//     is exhausted a fresh one is allocated, so slots already handed
//     out never move under a live VM;
//  2. slots are never recycled — a departed VM's records (and the
//     sim.AllocRef values inside them) stay addressable until the
//     arena itself is garbage, so live step records and aggregated
//     results cannot end up referencing reused memory.
//
// Slots are three-index sub-slices (len 0, capped capacity): a VM that
// somehow overruns its step budget appends into a private copy instead
// of stomping a neighbour's records.
//
// The arena is sharded per run-phase worker: each worker acquires from
// its own shard, so the multi-million-slot fleets of
// the scale benchmarks never serialize on one mutex — the per-shard
// lock exists only for callers that share a shard (tests, future
// work-stealing schedulers) and is uncontended in the fleet's
// one-worker-per-shard layout.
type stepArena struct {
	shards []arenaShard
}

// arenaShard is one worker's private slab state, padded to its own
// cache line so neighbouring workers' bump pointers never false-share.
type arenaShard struct {
	mu      sync.Mutex
	block   []sim.StepRecord // current block; tail past used is free
	used    int              // records handed out of the current block
	defSize int              // preferred block size for this shard
	_       [64]byte
}

// newStepArena pre-sizes the arena for `capacity` total records spread
// over `shards` worker shards, each sized to an even share of the
// fleet so dynamic work claiming keeps the steady state at roughly one
// allocation per shard; joins beyond a shard's share cost one new
// block each, never a move. The shard blocks are allocated eagerly,
// before the caller's hot loop starts: the multi-megabyte slabs are
// what tips the GC into a mark cycle, and paying that before the run
// phase keeps concurrent-mark write barriers and allocation assists
// out of the per-step stores (deferring the blocks to first acquire
// measurably slowed the vms=100 benchmark for exactly that reason).
// Callers that never acquire — discarding runs — pass capacity 0 and
// allocate nothing.
func newStepArena(capacity, shards int) *stepArena {
	if capacity < 0 {
		capacity = 0
	}
	if shards < 1 {
		shards = 1
	}
	a := &stepArena{shards: make([]arenaShard, shards)}
	per := (capacity + shards - 1) / shards
	for i := range a.shards {
		a.shards[i].defSize = per
		if per > 0 {
			a.shards[i].block = make([]sim.StepRecord, per)
		}
	}
	return a
}

// acquire returns a zero-length slot with capacity for n records from
// the given worker's shard. Safe for concurrent use; the returned slot
// is private to the caller.
func (a *stepArena) acquire(worker, n int) []sim.StepRecord {
	s := &a.shards[worker%len(a.shards)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.used+n > len(s.block) {
		// Exhausted (or first use): start a new block. The old one is
		// intentionally abandoned to its outstanding slots — growing it
		// would move them.
		size := s.defSize
		if size < n {
			size = n
		}
		s.block = make([]sim.StepRecord, size)
		s.used = 0
	}
	slot := s.block[s.used : s.used : s.used+n]
	s.used += n
	return slot
}
