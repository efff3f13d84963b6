package ldp

import (
	"fmt"
	"math"

	"ldprecover/internal/hashx"
	"ldprecover/internal/rng"
)

// OLH is Optimized Local Hashing (Wang et al.; paper §III-B, Eq. 8–10):
// each user draws a hash function H (here: a seed into the hashx family),
// hashes her item into {0,...,g-1} with g = ⌈e^ε+1⌉, perturbs the hash
// value with GRR over the g-sized domain, and reports (H, value).
//
// Aggregation-side probabilities are p = e^ε/(e^ε+g-1) and q = 1/g; the
// internal GRR perturbation uses q_perturb = 1/(e^ε+g-1), exposed via
// PerturbQ for tests.
type OLH struct {
	params   Params
	perturbQ float64
	// perturbPFix is the fixed-point threshold for the internal GRR keep
	// probability p' = e^ε/(e^ε+g-1) (numerically equal to params.P),
	// hoisted to construction so Perturb's hot path does no exp/float
	// work per report.
	perturbPFix uint64
	name        string
}

// maxHashRange bounds OLH's hash range g. Beyond 2^31 the range no
// longer describes a plausible report alphabet — it is the signature of
// an overflowed e^ε — and the float->int conversion of such a g is
// implementation-dependent (garbage-negative on amd64, saturated-huge on
// arm64), so the budget is rejected before any conversion happens.
const maxHashRange = 1 << 31

// NewOLH constructs an OLH protocol over a domain of size d with privacy
// budget epsilon, using the paper's default hash range g = ⌈e^ε+1⌉.
// Budgets whose hash range overflows maxHashRange are rejected with
// ErrEpsilonTooLarge rather than converted to a platform-dependent
// garbage range.
func NewOLH(d int, epsilon float64) (*OLH, error) {
	if math.IsNaN(epsilon) {
		return nil, fmt.Errorf("ldp: invalid epsilon %v", epsilon)
	}
	ge := math.Ceil(math.Exp(epsilon) + 1)
	if !(ge <= maxHashRange) {
		return nil, errEpsilonTooLarge("OLH", epsilon,
			fmt.Sprintf("hash range ceil(e^eps+1) = %g exceeds %d", ge, int64(maxHashRange)))
	}
	return NewOLHWithG(d, epsilon, int(ge))
}

// NewOLHWithG constructs OLH with an explicit hash range 2 <= g <=
// maxHashRange.
func NewOLHWithG(d int, epsilon float64, g int) (*OLH, error) {
	expE := math.Exp(epsilon)
	pr := Params{
		Epsilon: epsilon,
		Domain:  d,
		P:       expE / (expE + float64(g) - 1),
		Q:       1 / float64(g),
		G:       g,
	}
	if g < 2 || g > maxHashRange {
		return nil, errInvalidG(g)
	}
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	if err := checkPerturbable("OLH", pr); err != nil {
		return nil, err
	}
	return &OLH{
		params:      pr,
		perturbQ:    1 / (expE + float64(g) - 1),
		perturbPFix: rng.FixedProb(pr.P),
		name:        "OLH",
	}, nil
}

// NewBLH constructs Binary Local Hashing (Bassily–Smith style as framed
// by Wang et al.): OLH with a 2-value hash range, giving p = e^ε/(e^ε+1)
// and q = 1/2. Like SUE it is not in the paper's evaluation but is pure
// LDP, so recovery applies unchanged.
func NewBLH(d int, epsilon float64) (*OLH, error) {
	o, err := NewOLHWithG(d, epsilon, 2)
	if err != nil {
		return nil, err
	}
	o.name = "BLH"
	return o, nil
}

// Name implements Protocol.
func (o *OLH) Name() string { return o.name }

// Params implements Protocol.
func (o *OLH) Params() Params { return o.params }

// G returns the hash range.
func (o *OLH) G() int { return o.params.G }

// PerturbQ returns the internal GRR perturbation probability
// 1/(e^ε+g-1) for a specific non-true hash value.
func (o *OLH) PerturbQ() float64 { return o.perturbQ }

// Hash returns the hash of item v under the function indexed by seed,
// in {0,...,g-1}. Exposed so targeted attacks (MGA) can search for seeds
// that collide target items, exactly as the original attack does. Callers
// hashing many items under one seed should premix once with Hasher.
func (o *OLH) Hash(seed uint64, v int) int {
	return hashx.Premix(seed).ToRange(uint64(v), o.params.G)
}

// Hasher premixes seed into its hash function once, so multi-item scans
// (aggregation, MGA's seed search) pay the seed finalization a single
// time and the cheap per-item stage thereafter.
func (o *OLH) Hasher(seed uint64) hashx.Premixed {
	return hashx.Premix(seed)
}

// OLHReport is a (hash function, perturbed value) pair; it supports every
// item hashing to Value under Seed.
type OLHReport struct {
	Seed  uint64
	Value int
	G     int
}

// Supports implements Report.
func (r OLHReport) Supports(v int) bool {
	return hashx.Premix(r.Seed).ToRange(uint64(v), r.G) == r.Value
}

// AddSupports implements Report: the seed premix is hoisted out of the
// item scan, so one report costs one premix plus d cheap per-item mixes
// instead of d full hashes.
func (r OLHReport) AddSupports(counts []int64) {
	pre := hashx.Premix(r.Seed)
	for v := range counts {
		if pre.ToRange(uint64(v), r.G) == r.Value {
			counts[v]++
		}
	}
}

// Perturb implements Protocol (Eq. 8): hash, then GRR over the hash range.
func (o *OLH) Perturb(r *rng.Rand, v int) (Report, error) {
	if r == nil {
		return nil, ErrNilRand
	}
	if err := checkItem(v, o.params.Domain); err != nil {
		return nil, err
	}
	return o.perturbOLH(r, v), nil
}

// perturbOLH is Perturb's unboxed core, shared with PerturbAllInto so
// bulk perturbation can write into a report arena without a per-report
// interface allocation. Inputs are assumed validated.
func (o *OLH) perturbOLH(r *rng.Rand, v int) OLHReport {
	seed := r.Uint64()
	h := o.Hash(seed, v)
	g := o.params.G
	value := h
	// GRR over {0,...,g-1} with p' = e^ε/(e^ε+g-1), precomputed at
	// construction as a fixed-point threshold.
	if !r.BernoulliU64(o.perturbPFix) {
		value = r.Intn(g - 1)
		if value >= h {
			value++
		}
	}
	return OLHReport{Seed: seed, Value: value, G: g}
}

// CraftSupport implements Protocol: the attacker picks a fresh hash seed
// and reports v's unperturbed hash value, guaranteeing v is supported.
// (Other items collide with probability ~1/g; that is inherent to OLH's
// encoding and matches how the attacks in the paper operate.)
func (o *OLH) CraftSupport(r *rng.Rand, v int) (Report, error) {
	if r == nil {
		return nil, ErrNilRand
	}
	if err := checkItem(v, o.params.Domain); err != nil {
		return nil, err
	}
	seed := r.Uint64()
	return OLHReport{Seed: seed, Value: o.Hash(seed, v), G: o.params.G}, nil
}

// SimulateGenuineCounts implements Protocol. Marginally, item v is
// supported by its own users' reports with probability
// p' = e^ε/(e^ε+g-1) and by any other user's report with probability 1/g
// (fresh uniform hash), so C(v) = Binomial(n_v, p') + Binomial(n-n_v, 1/g).
// Cross-item correlations (two items colliding under the same user's
// hash) are O(1/g²) and ignored; the report-level path is exact.
func (o *OLH) SimulateGenuineCounts(r *rng.Rand, trueCounts []int64) ([]int64, error) {
	return independentBinomialCounts(r, trueCounts, o.params.Domain, o.params.P, o.params.Q)
}

// Variance implements Protocol (Eq. 10).
func (o *OLH) Variance(_ float64, n int64) float64 {
	expE := math.Exp(o.params.Epsilon)
	return float64(n) * 4 * expE / ((expE - 1) * (expE - 1))
}

var _ Protocol = (*OLH)(nil)
