package stats

import "math"

// NormalCDF returns P(X <= x) for X ~ N(mu, sigma^2).
func NormalCDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		return math.NaN()
	}
	return 0.5 * math.Erfc(-(x-mu)/(sigma*math.Sqrt2))
}

// BerryEsseen returns the paper's Theorem 4/5 bound on the sup distance
// between the true CDF of a standardized i.i.d. mean and its normal
// approximation:
//
//	0.33554 * (g + 0.415*sigma^3) / (sigma^3 * sqrt(n))
//
// where g is the absolute third central moment E[|X-mu|^3] of a single
// summand, sigma its standard deviation, and n the number of summands.
func BerryEsseen(g, sigma float64, n int64) float64 {
	if sigma <= 0 || n <= 0 {
		return math.NaN()
	}
	s3 := sigma * sigma * sigma
	return 0.33554 * (g + 0.415*s3) / (s3 * math.Sqrt(float64(n)))
}
