package ldp

import (
	"math"

	"ldprecover/internal/rng"
)

// SUE is Symmetric Unary Encoding — basic RAPPOR (Erlingsson et al.,
// CCS'14) in the pure-LDP framework of Wang et al.: one-hot encode, then
// flip each bit symmetrically with
//
//	p = e^{ε/2}/(e^{ε/2}+1)   (true bit stays 1)
//	q = 1/(e^{ε/2}+1)         (other bits become 1)
//
// SUE is not evaluated in the paper but is a pure LDP protocol under the
// same unified aggregation (Eq. 11), so LDPRecover applies unchanged —
// the package tests and the generality experiment use it to demonstrate
// exactly that.
type SUE struct {
	params  Params
	sampler unarySampler
}

// NewSUE constructs an SUE protocol over a domain of size d with privacy
// budget epsilon.
func NewSUE(d int, epsilon float64) (*SUE, error) {
	half := math.Exp(epsilon / 2)
	if math.IsInf(half, 1) {
		return nil, errEpsilonTooLarge("SUE", epsilon, "e^(eps/2) overflows float64")
	}
	pr := Params{
		Epsilon: epsilon,
		Domain:  d,
		P:       half / (half + 1),
		Q:       1 / (half + 1),
	}
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	if err := checkPerturbable("SUE", pr); err != nil {
		return nil, err
	}
	return &SUE{params: pr, sampler: newUnarySampler(d, pr.P, pr.Q)}, nil
}

// Name implements Protocol.
func (s *SUE) Name() string { return "SUE" }

// Params implements Protocol.
func (s *SUE) Params() Params { return s.params }

// Perturb implements Protocol: symmetric per-bit randomized response via
// the shared fixed-point unary sampler.
func (s *SUE) Perturb(r *rng.Rand, v int) (Report, error) {
	if r == nil {
		return nil, ErrNilRand
	}
	if err := checkItem(v, s.params.Domain); err != nil {
		return nil, err
	}
	return s.sampler.perturb(r, v), nil
}

// CraftSupport implements Protocol: the clean one-hot vector of v.
func (s *SUE) CraftSupport(_ *rng.Rand, v int) (Report, error) {
	if err := checkItem(v, s.params.Domain); err != nil {
		return nil, err
	}
	bits := NewBitset(s.params.Domain)
	bits.Set(v)
	return OUEReport{Bits: bits}, nil
}

// SimulateGenuineCounts implements Protocol: like OUE, bits are perturbed
// independently, so per-item counts are exactly independent binomials.
func (s *SUE) SimulateGenuineCounts(r *rng.Rand, trueCounts []int64) ([]int64, error) {
	return independentBinomialCounts(r, trueCounts, s.params.Domain, s.params.P, s.params.Q)
}

// Variance implements Protocol: Wang et al.'s SUE count variance at f=0,
// n·q(1-q)/(p-q)², plus the frequency-dependent term n·f·(1-p-q)/(p-q).
func (s *SUE) Variance(f float64, n int64) float64 {
	pq := s.params.P - s.params.Q
	nn := float64(n)
	return nn*s.params.Q*(1-s.params.Q)/(pq*pq) + nn*f*(1-s.params.P-s.params.Q)/pq
}

var _ Protocol = (*SUE)(nil)
