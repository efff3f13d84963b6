// Package ldp implements the three pure LDP frequency-estimation protocols
// the paper evaluates — GRR, OUE and OLH (§III-B) — behind a single
// Protocol interface, together with the unified aggregation of §III-C:
// support counting (Eq. 12–13), unbiased estimation (Eq. 11) and the
// protocols' theoretical variances (Eq. 4, 7, 10).
//
// Each protocol offers two simulation paths: Perturb produces real
// per-user reports (exact, used by tests, examples and report-level
// defenses), and SimulateGenuineCounts samples the aggregated support
// counts of a whole population directly from their marginal distributions
// (fast, used by the paper-scale experiment harness; see DESIGN.md §2 for
// the fidelity discussion). SimulateGenuineCounts is the only count-level
// path: it is sequential in one generator, and callers that want
// parallelism run independent populations (trials, grid cells) on their
// own substreams. ShardedAccumulator provides the concurrency-safe ingest
// for report streams.
package ldp

import (
	"errors"
	"fmt"
	"math"

	"ldprecover/internal/rng"
)

// Report is one user's perturbed submission. A report "supports" item v
// when v's encoded value could have produced it (the support set S(ṽ) of
// Eq. 13).
type Report interface {
	// Supports reports whether item v is in the report's support set.
	Supports(v int) bool
	// AddSupports increments counts[v] for every supported item v with
	// v < len(counts). It is the O(|S|) bulk form of Supports used by
	// aggregation.
	AddSupports(counts []int64)
}

// Params carries the aggregation-side description of a protocol: the
// domain size and the probabilities p, q of Eq. (11). For OLH these are
// the aggregation pair (p = e^ε/(e^ε+g-1), q = 1/g), which differs from
// its internal GRR perturbation probabilities.
type Params struct {
	// Epsilon is the privacy budget ε.
	Epsilon float64
	// Domain is the input domain size d = |D|.
	Domain int
	// P is the probability that a report supports the user's true item.
	P float64
	// Q is the probability that a report supports any other given item.
	Q float64
	// G is OLH's hash range; zero for protocols without hashing.
	G int
}

// Validate checks internal consistency.
func (p Params) Validate() error {
	if p.Domain < 2 {
		return fmt.Errorf("ldp: domain %d < 2", p.Domain)
	}
	if p.Epsilon <= 0 || math.IsNaN(p.Epsilon) || math.IsInf(p.Epsilon, 0) {
		return fmt.Errorf("ldp: invalid epsilon %v", p.Epsilon)
	}
	if !(p.P > p.Q) || p.P <= 0 || p.P > 1 || p.Q < 0 || p.Q >= 1 {
		return fmt.Errorf("ldp: invalid probabilities p=%v q=%v", p.P, p.Q)
	}
	return nil
}

// Protocol is a pure LDP frequency-estimation protocol (Ψ, Φ).
type Protocol interface {
	// Name returns the short protocol name ("GRR", "OUE", "OLH").
	Name() string
	// Params returns the aggregation-side parameters.
	Params() Params
	// Perturb encodes and perturbs item v into a report (algorithm Ψ).
	Perturb(r *rng.Rand, v int) (Report, error)
	// CraftSupport returns an encoded value whose support set is chosen by
	// an adversary to contain item v, bypassing perturbation. This is the
	// primitive behind the paper's adaptive attack (§V-C): malicious users
	// submit attacker-crafted encoded data directly.
	CraftSupport(r *rng.Rand, v int) (Report, error)
	// SimulateGenuineCounts samples the aggregated per-item support counts
	// C(v) for a population whose true item counts are trueCounts, without
	// materializing individual reports.
	SimulateGenuineCounts(r *rng.Rand, trueCounts []int64) ([]int64, error)
	// Variance returns the theoretical variance of the estimated COUNT
	// Φ(v) for an item with true frequency f among n users (Eq. 4/7/10).
	Variance(f float64, n int64) float64
}

// checkItem validates an item id against a domain size.
func checkItem(v, d int) error {
	if v < 0 || v >= d {
		return fmt.Errorf("ldp: item %d outside domain [0,%d)", v, d)
	}
	return nil
}

// ErrNilRand is returned when a nil generator is supplied.
var ErrNilRand = errors.New("ldp: nil random generator")

// ErrEpsilonTooLarge is returned by protocol constructors when the
// requested privacy budget cannot be realized in float64: e^ε (or the
// derived hash range) overflows, or the perturbation probabilities round
// to the degenerate p = 1 / q = 0. Constructing anyway would silently
// run a *different* mechanism than the requested ε — typically one that
// never perturbs, i.e. no privacy at all — so the budget is rejected at
// construction instead.
var ErrEpsilonTooLarge = errors.New("ldp: epsilon too large to represent")

// errEpsilonTooLarge wraps ErrEpsilonTooLarge with the protocol and the
// specific degeneracy.
func errEpsilonTooLarge(name string, epsilon float64, detail string) error {
	return fmt.Errorf("ldp: %s epsilon %g unrepresentable (%s): %w", name, epsilon, detail, ErrEpsilonTooLarge)
}

// checkPerturbable rejects parameter sets whose float64 evaluation
// degenerated to a non-perturbing mechanism. It is the guard every
// constructor that derives p/q from e^ε must run before accepting ε —
// Params.Validate cannot catch this, because p = 1 with a tiny positive
// q is a perfectly consistent (just non-private) parameter set.
func checkPerturbable(name string, pr Params) error {
	if pr.P >= 1 {
		return errEpsilonTooLarge(name, pr.Epsilon, fmt.Sprintf("keep probability rounds to %v", pr.P))
	}
	if pr.Q <= 0 {
		return errEpsilonTooLarge(name, pr.Epsilon, fmt.Sprintf("flip probability rounds to %v", pr.Q))
	}
	return nil
}
