package ldp

import (
	"ldprecover/internal/rng"
)

// unarySampler carries the perturbation constants the unary-encoding
// protocols (OUE, SUE) precompute once at construction: fixed-point
// Bernoulli thresholds, so the hot loop touches no float math and no
// struct fields beyond these.
type unarySampler struct {
	d    int
	pFix uint64 // fixed-point threshold for the true bit
	qFix uint64 // fixed-point threshold for every other bit
}

func newUnarySampler(d int, p, q float64) unarySampler {
	return unarySampler{
		d:    d,
		pFix: rng.FixedProb(p),
		qFix: rng.FixedProb(q),
	}
}

// perturb draws one perturbed unary report for true item v as a dense
// bitset.
func (u unarySampler) perturb(r *rng.Rand, v int) Report {
	bits := NewBitset(u.d)
	u.fillDense(r, v, bits)
	return OUEReport{Bits: bits}
}

// fillDense perturbs all d bits with one fixed-point compare per bit,
// splitting the loop at v so the inner loops carry no position branch.
func (u unarySampler) fillDense(r *rng.Rand, v int, bits *Bitset) {
	for i := 0; i < v; i++ {
		if r.BernoulliU64(u.qFix) {
			bits.Set(i)
		}
	}
	if r.BernoulliU64(u.pFix) {
		bits.Set(v)
	}
	for i := v + 1; i < u.d; i++ {
		if r.BernoulliU64(u.qFix) {
			bits.Set(i)
		}
	}
}
