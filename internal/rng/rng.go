// Package rng provides a deterministic, splittable pseudo-random number
// generator and the distribution samplers used throughout the simulator.
//
// The package intentionally does not use math/rand: experiment results must
// be bit-for-bit reproducible across Go releases, and the harness needs
// substreams (independent generators derived from a parent seed) so that
// trials can run in parallel without sharing state. The generator is
// xoshiro256** seeded through splitmix64, the combination recommended by
// the xoshiro authors.
package rng

import (
	"fmt"
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random generator. It is NOT safe for
// concurrent use; derive one generator per goroutine with Split.
type Rand struct {
	s [4]uint64
}

// splitmix64 advances a 64-bit state and returns a well-mixed output.
// It is used for seeding and for the keyed hash in package hashx.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator deterministically derived from seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Reseed(seed)
	return r
}

// Reseed resets r in place to the state New(seed) would produce, letting
// steady-state loops restart a stream without allocating a generator.
func (r *Rand) Reseed(seed uint64) {
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// xoshiro256** must not be seeded with the all-zero state; splitmix64
	// cannot produce four consecutive zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Split returns a new generator whose stream is independent of r's
// (derived from r's next output), advancing r once. Substreams derived
// from distinct draws are statistically independent for simulation
// purposes.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

// Uint64 returns the next 64 uniformly random bits (xoshiro256**).
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9

	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0; callers
// control n so this indicates a programming error, matching math/rand.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn called with n=%d", n))
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's unbiased
// multiply-shift rejection method.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n=0")
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

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// FixedProb converts a probability to the 64-bit fixed-point threshold
// consumed by BernoulliU64. Scaling by 2^64 only shifts the exponent, so
// p*2^64 is computed exactly; rounding it to the nearest integer leaves
// the realized probability within 2^-65 of p, and exactly equal to p
// whenever p >= 2^-11 (where p's own ulp is at least 2^-64 and the
// product is already integral). That is far below the 2^-53 resolution
// of the Float64-based Bernoulli. Out-of-range p — including NaN, which
// would otherwise reach the implementation-dependent float-to-uint64
// conversion and produce a platform-specific garbage threshold — clamps
// to the degenerate thresholds.
func FixedProb(p float64) uint64 {
	if p <= 0 || math.IsNaN(p) {
		return 0
	}
	if p >= 1 {
		return ^uint64(0)
	}
	// p * 2^64 computed as p * 2^63 * 2 to stay inside float64 range.
	scaled := math.Round(p * (1 << 63) * 2)
	if scaled >= math.MaxUint64 { // 2^64 would overflow the conversion
		return ^uint64(0)
	}
	return uint64(scaled)
}

// BernoulliU64 returns true with probability threshold/2^64 using a single
// uint64 draw and one compare — no float conversion. threshold is
// precomputed once with FixedProb and reused across draws, which is what
// makes the per-bit cost of dense unary perturbation one generator step.
// A threshold of ^uint64(0) (FixedProb of p>=1) is treated as certainty.
func (r *Rand) BernoulliU64(threshold uint64) bool {
	if threshold == ^uint64(0) {
		r.Uint64() // keep stream consumption uniform across thresholds
		return true
	}
	return r.Uint64() < threshold
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method. The method consumes a variable number of uniforms but is exact,
// branch-light, and has no lookup tables to validate.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Exp returns an exponential variate with rate 1.
func (r *Rand) Exp() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Sample returns k distinct indices drawn uniformly without replacement
// from [0, n) in selection order. It panics if k > n (caller bug).
func (r *Rand) Sample(n, k int) []int {
	if k > n {
		panic(fmt.Sprintf("rng: Sample k=%d > n=%d", k, n))
	}
	// Floyd's algorithm: O(k) memory, k map inserts.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
