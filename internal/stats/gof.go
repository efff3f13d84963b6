package stats

import (
	"errors"
	"math"
	"sort"
)

// KSStatistic returns the two-sided Kolmogorov–Smirnov statistic between
// the empirical CDF of the sample and the provided theoretical CDF.
func KSStatistic(sample []float64, cdf func(float64) float64) (float64, error) {
	n := len(sample)
	if n == 0 {
		return 0, errors.New("stats: KS on empty sample")
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	var d float64
	for i, x := range s {
		f := cdf(x)
		lo := f - float64(i)/float64(n)
		hi := float64(i+1)/float64(n) - f
		if lo > d {
			d = lo
		}
		if hi > d {
			d = hi
		}
	}
	return d, nil
}

// KSCriticalValue returns the approximate critical value of the two-sided
// KS statistic at significance alpha for sample size n, using the
// asymptotic c(alpha)/sqrt(n) form.
func KSCriticalValue(n int, alpha float64) float64 {
	if n <= 0 || alpha <= 0 || alpha >= 1 {
		return math.NaN()
	}
	c := math.Sqrt(-0.5 * math.Log(alpha/2))
	return c / math.Sqrt(float64(n))
}
