package experiment

import (
	"fmt"
	"math"

	"ldprecover/internal/harmony"
	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
)

// This file implements the paper's extension experiment: §VII-A (mean
// estimation via Harmony). It has no figure in the paper; the table
// quantifies that LDPRecover transfers to that setting.

// ExtensionHarmony measures mean recovery under a +1-category crafting
// attack across β, at each of the paper's grid points: true mean,
// poisoned mean, recovered mean (partial knowledge of the promoted
// category, exact binary allocation).
func ExtensionHarmony(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	const trueMean = -0.35
	n := int64(float64(200000) * cfg.Scale)
	if n < 1000 {
		n = 1000
	}
	t := &Table{
		Title: fmt.Sprintf("Extension: Harmony mean recovery (true mean %+.2f, n=%d)", trueMean, n),
		Header: []string{"beta",
			"poisoned-mean", "poisoned-err",
			"recovered-mean", "recovered-err"},
	}
	h, err := harmony.New(DefaultEpsilon)
	if err != nil {
		return nil, err
	}
	values := make([]float64, n)
	for i := range values {
		values[i] = trueMean
	}
	for _, beta := range beta2Sweep {
		var poisonedMean, recoveredMean float64
		for trial := 0; trial < cfg.Trials; trial++ {
			r := rng.New(cfg.Seed + uint64(trial)*131071)
			genCounts, err := h.SimulateCounts(r, values)
			if err != nil {
				return nil, err
			}
			m := maliciousCount(n, beta)
			combined := []int64{genCounts[harmony.Neg], genCounts[harmony.Pos] + m}
			poisoned, err := ldp.Unbias(combined, n+m, h.Params())
			if err != nil {
				return nil, err
			}
			eta := float64(m) / float64(n)
			res, err := harmony.RecoverMean(poisoned, DefaultEpsilon, eta, []int{harmony.Pos})
			if err != nil {
				return nil, err
			}
			poisonedMean += res.PoisonedMean
			recoveredMean += res.Mean
		}
		poisonedMean /= float64(cfg.Trials)
		recoveredMean /= float64(cfg.Trials)
		t.AddRow(fmt.Sprintf("%g", beta),
			fmt.Sprintf("%+.4f", poisonedMean),
			fmt.Sprintf("%.4f", math.Abs(poisonedMean-trueMean)),
			fmt.Sprintf("%+.4f", recoveredMean),
			fmt.Sprintf("%.4f", math.Abs(recoveredMean-trueMean)))
	}
	return []*Table{t}, nil
}
