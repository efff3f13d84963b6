package ldp

import (
	"math"
	"math/bits"

	"ldprecover/internal/rng"
)

// OUE is Optimized Unary Encoding (Wang et al.; paper §III-B, Eq. 5–7):
// the item is one-hot encoded into d bits, the true bit survives with
// probability p = 1/2 and every other bit is set with probability
// q = 1/(e^ε+1).
type OUE struct {
	params  Params
	sampler unarySampler
}

// NewOUE constructs an OUE protocol over a domain of size d with privacy
// budget epsilon.
func NewOUE(d int, epsilon float64) (*OUE, error) {
	pr := Params{
		Epsilon: epsilon,
		Domain:  d,
		P:       0.5,
		Q:       1 / (math.Exp(epsilon) + 1),
	}
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	if err := checkPerturbable("OUE", pr); err != nil {
		return nil, err
	}
	return &OUE{params: pr, sampler: newUnarySampler(d, pr.P, pr.Q)}, nil
}

// Name implements Protocol.
func (o *OUE) Name() string { return "OUE" }

// Params implements Protocol.
func (o *OUE) Params() Params { return o.params }

// OUEReport is a perturbed d-bit unary encoding; its support set is the
// set of positions holding a 1.
type OUEReport struct {
	Bits *Bitset
}

// Supports implements Report.
func (r OUEReport) Supports(v int) bool { return r.Bits.Get(v) }

// AddSupports implements Report: a closure-free word walk peeling set
// bits with TrailingZeros64. The common full-domain case (counts covers
// every word) runs with the per-bit bound check hoisted out entirely.
func (r OUEReport) AddSupports(counts []int64) {
	words := r.Bits.words
	if len(counts) >= len(words)*64 {
		for wi, w := range words {
			base := wi << 6
			for w != 0 {
				counts[base+bits.TrailingZeros64(w)]++
				w &= w - 1
			}
		}
		return
	}
	for wi, w := range words {
		base := wi << 6
		for w != 0 {
			if i := base + bits.TrailingZeros64(w); i < len(counts) {
				counts[i]++
			}
			w &= w - 1
		}
	}
}

// Perturb implements Protocol (Eq. 5): one fixed-point compare per bit.
func (o *OUE) Perturb(r *rng.Rand, v int) (Report, error) {
	if r == nil {
		return nil, ErrNilRand
	}
	if err := checkItem(v, o.params.Domain); err != nil {
		return nil, err
	}
	return o.sampler.perturb(r, v), nil
}

// CraftSupport implements Protocol: the attacker submits the clean one-hot
// vector of v (supports exactly {v}).
func (o *OUE) CraftSupport(_ *rng.Rand, v int) (Report, error) {
	if err := checkItem(v, o.params.Domain); err != nil {
		return nil, err
	}
	bits := NewBitset(o.params.Domain)
	bits.Set(v)
	return OUEReport{Bits: bits}, nil
}

// SimulateGenuineCounts implements Protocol. OUE perturbs every bit
// independently, so the support counts are exactly independent across
// items: C(v) = Binomial(n_v, p) + Binomial(n-n_v, q).
func (o *OUE) SimulateGenuineCounts(r *rng.Rand, trueCounts []int64) ([]int64, error) {
	return independentBinomialCounts(r, trueCounts, o.params.Domain, o.params.P, o.params.Q)
}

// Variance implements Protocol (Eq. 7).
func (o *OUE) Variance(_ float64, n int64) float64 {
	expE := math.Exp(o.params.Epsilon)
	return float64(n) * 4 * expE / ((expE - 1) * (expE - 1))
}

var _ Protocol = (*OUE)(nil)
