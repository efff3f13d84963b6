package dataset

import (
	"fmt"
	"math"

	"ldprecover/internal/rng"
)

// Zipf builds a deterministic Zipf(s)-shaped dataset with domain d and n
// users. Counts are exact largest-remainder apportionments of the pmf, so
// the same parameters always yield the same dataset.
func Zipf(name string, d int, n int64, s float64) (*Dataset, error) {
	pmf, err := rng.ZipfPMF(d, s)
	if err != nil {
		return nil, err
	}
	return FromFrequencies(name, pmf, n)
}

// Paper-scale constants (§VI-A.1).
const (
	// IPUMSDomain and IPUMSUsers match the paper's IPUMS 2017 "city"
	// attribute: 102 items across 389,894 users.
	IPUMSDomain = 102
	IPUMSUsers  = 389894
	// FireDomain and FireUsers match the paper's SF Fire "unit ID" under
	// the Alarms call type: 490 items across 667,574 users.
	FireDomain = 490
	FireUsers  = 667574
)

// SyntheticIPUMS returns the IPUMS surrogate: identical domain size and
// user count, Zipf(1.05) shape standing in for the heavy-tailed city
// distribution (see DESIGN.md §3 for the substitution rationale).
func SyntheticIPUMS() *Dataset {
	ds, err := Zipf("ipums-synth", IPUMSDomain, IPUMSUsers, 1.05)
	if err != nil {
		panic("dataset: SyntheticIPUMS construction failed: " + err.Error())
	}
	return ds
}

// SyntheticFire returns the Fire surrogate: identical domain size and user
// count, Zipf(0.85) shape (milder skew, longer tail of rare unit IDs).
func SyntheticFire() *Dataset {
	ds, err := Zipf("fire-synth", FireDomain, FireUsers, 0.85)
	if err != nil {
		panic("dataset: SyntheticFire construction failed: " + err.Error())
	}
	return ds
}

// GenerateHistory produces periods of historical genuine frequency
// estimates for the outlier-detection substrate: each period resamples the
// dataset's users (multinomial) and adds mild multiplicative drift, which
// is what a server would have collected in past, unattacked rounds.
func GenerateHistory(d *Dataset, periods int, drift float64, r *rng.Rand) ([][]float64, error) {
	if periods <= 0 {
		return nil, fmt.Errorf("dataset: invalid history periods %d", periods)
	}
	if drift < 0 || drift >= 1 || math.IsNaN(drift) {
		return nil, fmt.Errorf("dataset: drift %v outside [0,1)", drift)
	}
	base := d.Frequencies()
	n := d.N()
	out := make([][]float64, periods)
	for t := range out {
		weights := make([]float64, len(base))
		for v, f := range base {
			// Multiplicative drift keeps frequencies positive and the
			// relative perturbation bounded by drift.
			weights[v] = f * (1 + drift*(2*r.Float64()-1))
		}
		counts := r.Multinomial(n, weights)
		fs := make([]float64, len(counts))
		for v, c := range counts {
			fs[v] = float64(c) / float64(n)
		}
		out[t] = fs
	}
	return out, nil
}
