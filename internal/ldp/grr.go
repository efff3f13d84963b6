package ldp

import (
	"math"

	"ldprecover/internal/rng"
)

// GRR is General Randomized Response (Kairouz et al.; paper §III-B,
// Eq. 2–4): the user reports her true item with probability
// p = e^ε/(d-1+e^ε) and each specific other item with probability
// q = 1/(d-1+e^ε).
type GRR struct {
	params Params
	// pFix is the fixed-point keep threshold, hoisted to construction so
	// the per-report hot path is one uint64 compare.
	pFix uint64
}

// NewGRR constructs a GRR protocol over a domain of size d with privacy
// budget epsilon.
func NewGRR(d int, epsilon float64) (*GRR, error) {
	expE := math.Exp(epsilon)
	if math.IsInf(expE, 1) {
		return nil, errEpsilonTooLarge("GRR", epsilon, "e^eps overflows float64")
	}
	pr := Params{
		Epsilon: epsilon,
		Domain:  d,
		P:       expE / (float64(d) - 1 + expE),
		Q:       1 / (float64(d) - 1 + expE),
	}
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	if err := checkPerturbable("GRR", pr); err != nil {
		return nil, err
	}
	return &GRR{params: pr, pFix: rng.FixedProb(pr.P)}, nil
}

// Name implements Protocol.
func (g *GRR) Name() string { return "GRR" }

// Params implements Protocol.
func (g *GRR) Params() Params { return g.params }

// GRRReport is a GRR submission: the reported item itself. Its support
// set is the singleton {value}.
type GRRReport int

// Supports implements Report.
func (r GRRReport) Supports(v int) bool { return int(r) == v }

// AddSupports implements Report.
func (r GRRReport) AddSupports(counts []int64) {
	if int(r) >= 0 && int(r) < len(counts) {
		counts[r]++
	}
}

// Perturb implements Protocol (Eq. 2).
func (g *GRR) Perturb(r *rng.Rand, v int) (Report, error) {
	if r == nil {
		return nil, ErrNilRand
	}
	if err := checkItem(v, g.params.Domain); err != nil {
		return nil, err
	}
	return g.perturbGRR(r, v), nil
}

// perturbGRR is Perturb's unboxed core, shared with PerturbAllInto.
// Inputs are assumed validated.
func (g *GRR) perturbGRR(r *rng.Rand, v int) GRRReport {
	if r.BernoulliU64(g.pFix) {
		return GRRReport(v)
	}
	// Uniform over the d-1 other items.
	other := r.Intn(g.params.Domain - 1)
	if other >= v {
		other++
	}
	return GRRReport(other)
}

// CraftSupport implements Protocol: for GRR the attacker simply submits
// the item itself.
func (g *GRR) CraftSupport(_ *rng.Rand, v int) (Report, error) {
	if err := checkItem(v, g.params.Domain); err != nil {
		return nil, err
	}
	return GRRReport(v), nil
}

// SimulateGenuineCounts implements Protocol. For GRR the support count
// of item v is (kept reports of v) + (flips from other items landing on
// v): the kept part is Binomial(n_v, p) and each item's flipped mass
// spreads uniformly over the d-1 other items (exact multinomial).
func (g *GRR) SimulateGenuineCounts(r *rng.Rand, trueCounts []int64) ([]int64, error) {
	if r == nil {
		return nil, ErrNilRand
	}
	d := g.params.Domain
	if _, err := validateTrueCounts(trueCounts, d); err != nil {
		return nil, err
	}
	counts := make([]int64, d)
	// Uniform distribution over d-1 cells, reused across items.
	uniform := make([]float64, d-1)
	for i := range uniform {
		uniform[i] = 1
	}
	for u, nu := range trueCounts {
		if nu == 0 {
			continue
		}
		kept := r.Binomial(nu, g.params.P)
		counts[u] += kept
		flips := nu - kept
		if flips == 0 {
			continue
		}
		spread := r.Multinomial(flips, uniform)
		// spread[i] maps to item i for i<u and item i+1 for i>=u.
		for i, c := range spread {
			if c == 0 {
				continue
			}
			t := i
			if t >= u {
				t++
			}
			counts[t] += c
		}
	}
	return counts, nil
}

// Variance implements Protocol (Eq. 4).
func (g *GRR) Variance(f float64, n int64) float64 {
	expE := math.Exp(g.params.Epsilon)
	d := float64(g.params.Domain)
	nn := float64(n)
	return nn*(d-2+expE)/((expE-1)*(expE-1)) + nn*f*(d-2)/(expE-1)
}

var _ Protocol = (*GRR)(nil)
