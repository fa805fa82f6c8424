// Package rng provides the cheap deterministic random streams the
// fleet-scale paths share. Seeding math/rand's default source expands
// a 607-word lagged-Fibonacci table (~27µs); at vms=100 that
// per-VM seeding cost was a double-digit share of the fleet's run
// phase (ROADMAP "next perf frontier"). A splitmix64 stream instead
// seeds with a single integer write, so per-VM sources can be derived
// lazily from one fleet seed without any up-front expansion work.
//
// Streams from this package are deterministic and well mixed but are
// NOT the standard source's streams: paths whose fixed-seed outputs
// are golden-pinned (the paper-figure experiments) keep math/rand's
// default source.
package rng

import "math/rand"

// SplitMix64 is a tiny rand.Source64 (Vigna's splitmix64). The zero
// value is a valid source seeded with 0.
type SplitMix64 struct{ state uint64 }

// Uint64 returns the next value of the stream.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 implements rand.Source.
func (s *SplitMix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source.
func (s *SplitMix64) Seed(seed int64) { s.state = uint64(seed) }

// New returns a *rand.Rand over a fresh splitmix64 stream. Seed 0 is
// remapped to 1 so the zero seed still yields a usable stream
// distinct from accidental zero-value misuse.
func New(seed int64) *rand.Rand {
	if seed == 0 {
		seed = 1
	}
	return rand.New(&SplitMix64{state: uint64(seed)})
}

// Reseed restarts r, a stream from New, exactly as New(seed) starts one.
func Reseed(r *rand.Rand, seed int64) {
	if seed == 0 {
		seed = 1
	}
	r.Seed(seed)
}

// Derive mixes a base seed with an item index into an independent
// per-item seed: item i's stream is the same no matter how many items
// precede it or in which order they are derived. One finalizer round
// of splitmix64 does the mixing, so deriving is a few ALU ops.
func Derive(base int64, i int) int64 {
	z := uint64(base) + (uint64(i)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}
