package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSumEmpty(t *testing.T) {
	if Sum(nil) != 0 {
		t.Fatal("Sum(nil) != 0")
	}
}

func TestSumCompensated(t *testing.T) {
	// 1 followed by many tiny values that naive summation loses entirely.
	xs := make([]float64, 1+1e6)
	xs[0] = 1
	for i := 1; i < len(xs); i++ {
		xs[i] = 1e-16
	}
	got := Sum(xs)
	want := 1 + 1e6*1e-16
	if !almostEq(got, want, 1e-12) {
		t.Fatalf("Kahan sum %v want %v", got, want)
	}
}

func TestSumCancellation(t *testing.T) {
	xs := []float64{1e16, 1, -1e16}
	if got := Sum(xs); got != 1 {
		t.Fatalf("cancellation sum %v want 1", got)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean %v want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Fatalf("variance %v want 4", v)
	}
	if sv := SampleVariance(xs); !almostEq(sv, 4*8.0/7.0, 1e-12) {
		t.Fatalf("sample variance %v", sv)
	}
}

func TestVarianceDegenerate(t *testing.T) {
	if Variance(nil) != 0 || Variance([]float64{3}) != 0 {
		t.Fatal("variance of short input not 0")
	}
}

func TestVarianceNonNegativeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip pathological inputs
			}
		}
		return Variance(xs) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanBoundedByMinMaxProperty(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true
			}
		}
		m := Mean(xs)
		return m >= slices.Min(xs)-1e-9 && m <= slices.Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
