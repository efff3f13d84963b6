// Package stats provides the numerical substrate for the LDPRecover
// reproduction: compensated summation, descriptive moments, the paper's
// evaluation metrics (MSE, Eq. 36; frequency gain, Eq. 37), the normal
// distribution, the Kolmogorov–Smirnov test, binomial confidence bounds,
// and the Berry–Esseen bound used by the paper's Theorems 4–5.
//
// The LDP literature's numerical needs are thin but exacting: frequency
// vectors mix large positive and negative unbiased estimates, so naive
// summation loses digits, and the paper's statistical claims (unbiasedness,
// variance formulas, CLT approximations) need test machinery with
// controlled false-positive rates. Everything here is stdlib-only.
package stats

import "math"

// Sum returns the Neumaier-compensated sum of xs. Unlike plain Kahan, the
// compensation survives when a new term exceeds the running sum, which
// matters when large positive and negative unbiased LDP estimates cancel.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		t := sum + x
		if math.Abs(sum) >= math.Abs(x) {
			comp += (sum - t) + x
		} else {
			comp += (x - t) + sum
		}
		sum = t
	}
	return sum + comp
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the population variance of xs (0 for fewer than two
// elements), computed in two passes for stability.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var sum, comp float64
	for _, x := range xs {
		d := x - m
		y := d*d - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum / float64(n)
}

// SampleVariance returns the Bessel-corrected (n-1) variance.
func SampleVariance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return Variance(xs) * float64(n) / float64(n-1)
}
