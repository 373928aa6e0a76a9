// Package xrand provides the deterministic pseudo-random substrate used by
// every sampler in this repository.
//
// Independent range sampling is a statement about probability distributions,
// so the random source is a first-class dependency: every sampling routine
// in the repository takes an explicit *RNG instead of reaching for global
// state. That makes experiments reproducible (fixed seeds), makes statistical
// tests meaningful (the same stream can be replayed), and keeps structures
// safe for concurrent readers as long as each goroutine owns its RNG.
//
// The generator is xoshiro256++ seeded through splitmix64, the combination
// recommended by its authors for general-purpose use. Bounded integers use
// Lemire's multiply-shift rejection method, which performs one multiplication
// in the common case and is exactly uniform.
package xrand

import "math/bits"

// RNG is a xoshiro256++ pseudo-random generator. The zero value is invalid;
// use New or NewFromState. RNG is not safe for concurrent use; give each
// goroutine its own instance (Split derives independent streams).
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances a splitmix64 state and returns the next output.
// It is used only to expand seeds into full xoshiro states.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns an RNG deterministically derived from seed. Distinct seeds
// yield streams that are, for all practical purposes, independent.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets the generator to the state derived from seed.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	r.s0 = splitmix64(&sm)
	r.s1 = splitmix64(&sm)
	r.s2 = splitmix64(&sm)
	r.s3 = splitmix64(&sm)
	// A state of all zeros is the one fixed point of xoshiro; splitmix64
	// cannot produce four zero outputs in a row, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

// streamStep is the stride of the StreamSeed sequence. It is deliberately
// different from the golden-ratio stride the weighted shard backend uses
// for treap priority seeds, so the two derived sequences never hand out the
// same generator state for small indices.
const streamStep = 0xbf58476d1ce4e5b9

// StreamSeed returns the seed of the i-th stream of the fixed sequence
// anchored at seed: a structure that owns a seed and an atomic counter hands
// out independent, replayable generators as New(StreamSeed(seed, ctr.Add(1)))
// — or Reseeds a pooled one — without sharing generator state between
// goroutines.
func StreamSeed(seed, i uint64) uint64 { return seed + i*streamStep }

// Split returns a new RNG whose stream is independent of r's continuing
// stream. It consumes one output from r.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := bits.RotateLeft64(r.s0+r.s3, 23) + r.s0
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
// The implementation is Lemire's nearly-divisionless method: one widening
// multiply in the common case, with an exact rejection step that removes
// modulo bias entirely.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// IntRange returns a uniform integer in the inclusive range [lo, hi].
// It panics if lo > hi.
func (r *RNG) IntRange(lo, hi int) int {
	if lo > hi {
		panic("xrand: IntRange called with lo > hi")
	}
	return lo + int(r.Uint64n(uint64(hi-lo)+1))
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1.0p-53
}

// Float64Range returns a uniform float64 in [lo, hi).
func (r *RNG) Float64Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Norm64 returns a standard normal variate via the polar (Marsaglia) method.
func (r *RNG) Norm64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * polarScale(s)
		}
	}
}

// Shuffle permutes the first n elements using swap, Fisher–Yates style.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := int(r.Uint64n(uint64(i) + 1))
		swap(i, j)
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
