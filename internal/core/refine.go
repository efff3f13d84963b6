package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"ldprecover/internal/stats"
)

// Refiner maps an estimated genuine-frequency vector onto the probability
// simplex, enforcing conditions (22) and (23): non-negativity and
// sum-to-one.
type Refiner func(estimate []float64) ([]float64, error)

// RefineKKT is Algorithm 1's refinement loop (Eq. 32–35): starting from
// the full domain, repeatedly distribute the sum-to-one correction
// uniformly over the active set D* and demote items that go negative,
// until all active items are non-negative. The loop terminates in at most
// d iterations because demoted items never return and a singleton active
// set is always feasible.
func RefineKKT(estimate []float64) ([]float64, error) {
	if len(estimate) == 0 {
		return nil, errors.New("core: refine on empty vector")
	}
	if !stats.AllFinite(estimate) {
		return nil, errors.New("core: refine on non-finite vector")
	}
	d := len(estimate)
	// active lists D* in index order, so each round sums the same items
	// in the same order as a scan of the whole domain would, and a
	// demoted item costs nothing in later rounds.
	active := make([]int, d)
	for v := range active {
		active[v] = v
	}
	out := make([]float64, d)
	var sum float64
	for _, f := range estimate {
		sum += f
	}
	for iter := 0; iter < d; iter++ {
		// Eq. 34–35: mu/2 = (Σ_{D*} f̃ - 1)/|D*|; f'(v) = f̃(v) - mu/2.
		shift := (sum - 1) / float64(len(active))
		// One pass without a branch: a demoted item's output and its
		// share of the next round's sum are masked to +0, and it is
		// overwritten in active by the next item. The masked sum is the
		// kept items' sum bit for bit: it starts at +0 and so is never
		// -0, and adding +0 to anything else leaves it unchanged.
		n := 0
		var next float64
		for _, v := range active {
			f := estimate[v] - shift
			keep := 0
			if !(f < 0) {
				keep = 1
			}
			mask := -uint64(keep)
			out[v] = math.Float64frombits(math.Float64bits(f) & mask)
			next += math.Float64frombits(math.Float64bits(estimate[v]) & mask)
			active[n] = v
			n += keep
		}
		if n == len(active) {
			return out, nil
		}
		active, sum = active[:n], next
		if n == 0 {
			// Unreachable for finite input (a singleton active set yields
			// exactly 1), but guard against float pathologies.
			return nil, errors.New("core: refinement emptied the active set")
		}
	}
	// Loop invariant guarantees convergence within d rounds; reaching here
	// means the invariant broke (e.g. NaN slipped through).
	return nil, errors.New("core: refinement failed to converge")
}

// ProjectSimplex is the exact Euclidean projection onto the probability
// simplex via the standard sort-and-threshold algorithm. It computes the
// same point as RefineKKT (the paper's CI problem has a unique optimum;
// the package tests verify the equivalence) in O(d log d) with a single
// pass.
func ProjectSimplex(estimate []float64) ([]float64, error) {
	if len(estimate) == 0 {
		return nil, errors.New("core: project on empty vector")
	}
	if !stats.AllFinite(estimate) {
		return nil, errors.New("core: project on non-finite vector")
	}
	d := len(estimate)
	sorted := append([]float64(nil), estimate...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	var cumsum, tau float64
	rho := 0
	for j := 0; j < d; j++ {
		cumsum += sorted[j]
		t := (cumsum - 1) / float64(j+1)
		if sorted[j]-t > 0 {
			rho = j + 1
			tau = t
		}
	}
	if rho == 0 {
		return nil, fmt.Errorf("core: simplex projection found no support (max=%v)", sorted[0])
	}
	out := make([]float64, d)
	for v, f := range estimate {
		if f > tau {
			out[v] = f - tau
		}
	}
	return out, nil
}
