package ldp

import "ldprecover/internal/rng"

// validateTrueCounts checks the count vector and returns the population
// size n.
func validateTrueCounts(trueCounts []int64, d int) (int64, error) {
	if len(trueCounts) != d {
		return 0, errLenMismatch(len(trueCounts), d)
	}
	var n int64
	for u, c := range trueCounts {
		if c < 0 {
			return 0, errNegCount(u, c)
		}
		n += c
	}
	return n, nil
}

// independentBinomialCounts is the count-level sampler shared by the
// unary-encoding and local-hashing protocols, whose per-item support
// counts are (marginally) independent binomials
// C(v) = Bin(n_v, p) + Bin(n-n_v, q).
func independentBinomialCounts(r *rng.Rand, trueCounts []int64, d int, p, q float64) ([]int64, error) {
	if r == nil {
		return nil, ErrNilRand
	}
	n, err := validateTrueCounts(trueCounts, d)
	if err != nil {
		return nil, err
	}
	counts := make([]int64, d)
	for v, nv := range trueCounts {
		counts[v] = r.Binomial(nv, p) + r.Binomial(n-nv, q)
	}
	return counts, nil
}
