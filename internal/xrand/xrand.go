// Package xrand provides deterministic, splittable random number streams.
//
// Every stochastic component of the simulator draws from a named stream so
// that a (scenario, seed) pair reproduces a run bit-for-bit regardless of
// the order in which subsystems are initialised. Streams are derived from a
// root seed by hashing the stream name with FNV-1a, so adding a new stream
// never perturbs existing ones.
package xrand

import (
	"hash/fnv"
	"math/rand"
)

// Source is a deterministic random stream. It wraps math/rand.Rand around a
// splitmix64 state and adds a few distribution helpers used throughout the
// simulator.
type Source struct {
	rng *rand.Rand
}

// sm64 is a splitmix64 generator implementing math/rand.Source64. Unlike
// rand.NewSource's lagged-Fibonacci state, constructing one is a single
// integer write — world construction derives one stream per node, which at
// city scale (10⁴+ nodes) made the 607-word seeding loop the dominant cost
// of Scenario.Build. Streams produced by splitmix64 differ from the old
// math/rand streams, so golden fixtures were regenerated when this landed
// (see DESIGN.md "Determinism contract").
type sm64 uint64

func (s *sm64) Uint64() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *sm64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *sm64) Seed(seed int64) { *s = sm64(seed) }

// New returns a stream seeded directly with seed.
func New(seed int64) *Source {
	src := sm64(seed)
	return &Source{rng: rand.New(&src)}
}

// Derive returns an independent stream derived from a root seed and a name.
// The same (seed, name) pair always yields the same stream.
func Derive(seed int64, name string) *Source {
	h := fnv.New64a()
	// The write cannot fail on a hash.
	_, _ = h.Write([]byte(name))
	return New(seed ^ int64(h.Sum64()))
}

// Derive returns a child stream of s identified by name. Children of the
// same parent with distinct names are independent.
func (s *Source) Derive(name string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return New(s.rng.Int63() ^ int64(h.Sum64()))
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Int63 returns a non-negative uniform int64.
func (s *Source) Int63() int64 { return s.rng.Int63() }

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng.Float64()
}

// UniformInt returns a uniform int in [lo, hi]. It panics if hi < lo.
func (s *Source) UniformInt(lo, hi int) int {
	if hi < lo {
		panic("xrand: UniformInt with hi < lo")
	}
	return lo + s.rng.Intn(hi-lo+1)
}

// Pick returns a uniformly chosen element index with the given weights.
// Zero-total weights fall back to a uniform choice. It panics on an empty
// slice.
func (s *Source) Pick(weights []float64) int {
	if len(weights) == 0 {
		panic("xrand: Pick with empty weights")
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return s.Intn(len(weights))
	}
	x := s.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.rng.Float64() < p }
