package experiment

import (
	"fmt"
	"math"

	"ldprecover/internal/core"
	"ldprecover/internal/rng"
	"ldprecover/internal/stats"
)

// TheoryValidation empirically validates the paper's analytical results
// on each protocol: Lemma 2's estimator moments (mean and variance of
// f̃_X̃(v)), Theorem 2's unbiasedness of the genuine frequency estimator,
// and Theorems 4–5's Berry–Esseen bounds (the measured sup-CDF distance
// to the normal approximation must fall below the bound).
func TheoryValidation(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	ds, err := cfg.ipums()
	if err != nil {
		return nil, err
	}
	n := ds.N()
	const f = 0.1 // frequency of the probed item
	const trials = 2000

	t := &Table{
		Title: fmt.Sprintf("Theory validation (n=%d, f=%g, %d trials)", n, f, trials),
		Header: []string{"protocol",
			"mean-pred", "mean-emp",
			"var-pred", "var-emp",
			"be-bound", "ks-emp", "ks<=bound"},
	}
	for _, proto := range AllProtocols {
		p, err := proto.Build(ds.Domain(), DefaultEpsilon)
		if err != nil {
			return nil, err
		}
		lpr := p.Params()
		pr := core.Params{P: lpr.P, Q: lpr.Q, Domain: lpr.Domain}
		pred, err := core.GenuineDistribution(f, pr, n)
		if err != nil {
			return nil, err
		}
		bound, err := core.GenuineApproxError(f, pr, n)
		if err != nil {
			return nil, err
		}

		r := rng.New(cfg.Seed + uint64(proto)*65537)
		sample := make([]float64, trials)
		nv := int64(f * float64(n))
		for i := range sample {
			// Per-item marginal of any pure protocol: the item is
			// supported by its holders w.p. p and by others w.p. q.
			c := r.Binomial(nv, lpr.P) + r.Binomial(n-nv, lpr.Q)
			sample[i] = (float64(c) - float64(n)*lpr.Q) / (float64(n) * (lpr.P - lpr.Q))
		}
		empMean := stats.Mean(sample)
		empVar := stats.SampleVariance(sample)
		ks, err := stats.KSStatistic(sample, func(x float64) float64 {
			return stats.NormalCDF(x, pred.Mu, math.Sqrt(pred.Sigma2))
		})
		if err != nil {
			return nil, err
		}
		// The empirical KS also carries sampling error ~1/sqrt(trials).
		slack := 2 / math.Sqrt(float64(trials))
		ok := "yes"
		if ks > bound+slack {
			ok = "NO"
		}
		t.AddRow(proto.String(),
			fmt.Sprintf("%.6f", pred.Mu), fmt.Sprintf("%.6f", empMean),
			sci(pred.Sigma2), sci(empVar),
			sci(bound), sci(ks), ok)
	}
	return []*Table{t}, nil
}
