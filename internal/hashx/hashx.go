// Package hashx implements the seeded hash family used by the OLH
// protocol.
//
// OLH (Wang et al., USENIX Security'17) requires a family H of hash
// functions, indexed by a per-user seed, such that for each item v the hash
// value H(v) is uniform over {0, ..., g-1} and approximately independent
// across items. The paper uses xxhash; any family with those statistical
// properties is equivalent (the protocol's estimator only depends on the
// marginal support probabilities p and q=1/g). The package provides one
// family, Premixed (v2): a once-per-seed premix plus a cheap two-multiply
// per-item stage, which is what makes report-level OLH aggregation fast.
// It is statistically validated in the package tests and pinned by golden
// vectors. The v1 family is retired; the report codec rejects v1-tagged
// OLH reports on decode.
package hashx

import "math/bits"

// Premixed is the two-stage ("v2") hash family: the expensive seed
// finalization runs ONCE per hash function (Premix), and the per-item
// stage is a cheap two-multiply finalizer. Aggregating one OLH report
// against a domain of d items therefore costs one premix plus d cheap
// mixes, instead of d full five-multiply hashes.
//
// The family is versioned as v2, and its outputs are pinned by golden
// vectors so they can never drift silently.
type Premixed uint64

// Premix finalizes a seed into a v2 hash function. The mix is the
// splitmix64 output function: full avalanche on the seed, so seeds
// differing in one bit index unrelated per-item functions.
func Premix(seed uint64) Premixed {
	z := (seed ^ (seed >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return Premixed(z ^ (z >> 31))
}

// Hash64 returns the 64-bit v2 hash of x. Stage two is the murmur3
// fmix64 finalizer applied to x·φ + premixed: the odd-constant multiply
// decorrelates adjacent items, the premixed offset selects the function,
// and fmix64 provides avalanche. Two multiplies for the offset-and-mix
// pipeline's hot loop.
func (p Premixed) Hash64(x uint64) uint64 {
	z := x*0x9e3779b97f4a7c15 + uint64(p)
	z = (z ^ (z >> 33)) * 0xff51afd7ed558ccd
	z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53
	return z ^ (z >> 33)
}

// ToRange maps x to {0, ..., g-1} under the premixed function using
// fixed-point range reduction (unbiased up to 2^-64).
func (p Premixed) ToRange(x uint64, g int) int {
	hi, _ := bits.Mul64(p.Hash64(x), uint64(g))
	return int(hi)
}

// BucketInterval returns the hash interval that ToRange maps to value:
// for 0 ≤ value < g and g ≥ 2,
//
//	p.ToRange(x, g) == value  ⇔  p.Hash64(x) - lo < width
//
// with uint64 arithmetic that wraps. ToRange(x, g) == value holds exactly
// when value·2^64 ≤ Hash64(x)·g < (value+1)·2^64, that is when Hash64(x)
// lies in [lo, hi) with lo = ⌈value·2^64/g⌉ and hi = ⌈(value+1)·2^64/g⌉;
// width = hi - lo. For value = g-1, hi is 2^64 and wraps to 0, and the
// wrapped width still counts every z ≥ lo. A batch fold computes the
// interval once per report and then tests each item with a subtract and
// a compare instead of a 64×64→128-bit multiply. Like ToRange, g is read
// as a uint64.
func BucketInterval(value, g int) (lo, width uint64) {
	lo = ceilDiv128(uint64(value), uint64(g))
	var hi uint64 // 2^64 wraps to 0 when value+1 == g
	if uint64(value)+1 < uint64(g) {
		hi = ceilDiv128(uint64(value)+1, uint64(g))
	}
	return lo, hi - lo
}

// ceilDiv128 returns ⌈n·2^64/g⌉ for n < g.
func ceilDiv128(n, g uint64) uint64 {
	q, r := bits.Div64(n, 0, g)
	if r != 0 {
		q++
	}
	return q
}
