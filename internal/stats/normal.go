package stats

import "math"

// NormalCDF returns P(X <= x) for X ~ N(mu, sigma^2).
func NormalCDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		return math.NaN()
	}
	return 0.5 * math.Erfc(-(x-mu)/(sigma*math.Sqrt2))
}

// NormalQuantile returns the p-quantile of N(mu, sigma^2) for p in (0,1).
// It inverts NormalCDF with a bracketed Newton iteration — slower than a
// rational approximation but correct to ~1e-12 with no tabulated
// coefficients to mis-transcribe.
func NormalQuantile(p, mu, sigma float64) float64 {
	if sigma <= 0 || math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Standard-normal quantile by bisection on the CDF (monotone, smooth),
	// polished with safeguarded Newton steps. Plain Newton diverges in the
	// far tails where the density underflows relative to the CDF error, so
	// every step is kept inside the shrinking bracket.
	lo, hi := -40.0, 40.0 // Phi(±40) saturates double precision
	z := 0.0
	for i := 0; i < 200; i++ {
		f := 0.5*math.Erfc(-z/math.Sqrt2) - p
		if f > 0 {
			hi = z
		} else {
			lo = z
		}
		d := math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi)
		var next float64
		if d > 0 {
			next = z - f/d
		}
		if d == 0 || next <= lo || next >= hi {
			next = (lo + hi) / 2 // Newton left the bracket: bisect
		}
		if math.Abs(next-z) < 1e-14*(1+math.Abs(next)) {
			z = next
			break
		}
		z = next
	}
	return mu + sigma*z
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
