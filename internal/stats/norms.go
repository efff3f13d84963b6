package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrLengthMismatch is returned by vector metrics when the inputs have
// different lengths.
var ErrLengthMismatch = errors.New("stats: vector length mismatch")

// MSE returns the mean squared error between a and b, the paper's primary
// accuracy metric (Eq. 36): (1/d) * Σ_v (a_v - b_v)^2.
func MSE(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(a), len(b))
	}
	if len(a) == 0 {
		return 0, errors.New("stats: MSE of empty vectors")
	}
	var sum, comp float64
	for i := range a {
		d := a[i] - b[i]
		y := d*d - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum / float64(len(a)), nil
}

// FrequencyGain is the total increase of the target items' frequencies in
// estimate relative to the genuine estimate, the targeted-attack metric
// (Eq. 37, oriented so a successful attack yields a positive gain):
// Σ_{t∈T} (estimate_t - genuine_t).
func FrequencyGain(estimate, genuine []float64, targets []int) (float64, error) {
	if len(estimate) != len(genuine) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(estimate), len(genuine))
	}
	if len(targets) == 0 {
		return 0, errors.New("stats: frequency gain requires targets")
	}
	var fg float64
	for _, t := range targets {
		if t < 0 || t >= len(estimate) {
			return 0, fmt.Errorf("stats: target %d outside domain [0,%d)", t, len(estimate))
		}
		fg += estimate[t] - genuine[t]
	}
	return fg, nil
}

// AllFinite reports whether every element of x is finite (no NaN/Inf).
// It scans without a branch: v - v is +0 for finite v and NaN otherwise.
func AllFinite(x []float64) bool {
	var nonFinite uint64
	for _, v := range x {
		nonFinite |= math.Float64bits(v - v)
	}
	return nonFinite == 0
}
