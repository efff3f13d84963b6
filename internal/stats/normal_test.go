package stats

import (
	"math"
	"testing"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{1.959963984540054, 0.975},
		{-4, 3.167124183311986e-05},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x, 0, 1); !almostEq(got, c.want, 1e-10) {
			t.Fatalf("cdf(%v) = %v want %v", c.x, got, c.want)
		}
	}
}

func TestNormalCDFShiftScale(t *testing.T) {
	// N(3, 4): P(X <= 5) = Phi(1).
	if got := NormalCDF(5, 3, 2); !almostEq(got, 0.8413447460685429, 1e-10) {
		t.Fatalf("shifted cdf = %v", got)
	}
}

func TestBerryEsseenBasics(t *testing.T) {
	// Bound must be positive and shrink as 1/sqrt(n).
	b1 := BerryEsseen(1, 1, 100)
	b2 := BerryEsseen(1, 1, 10000)
	if b1 <= 0 || b2 <= 0 {
		t.Fatalf("non-positive bounds %v %v", b1, b2)
	}
	if !almostEq(b1/b2, 10, 1e-9) {
		t.Fatalf("bound not scaling as 1/sqrt(n): ratio %v", b1/b2)
	}
	// Closed form check: 0.33554*(g + 0.415 s^3)/(s^3 sqrt(n)).
	want := 0.33554 * (2 + 0.415*8) / (8 * math.Sqrt(400))
	if got := BerryEsseen(2, 2, 400); !almostEq(got, want, 1e-12) {
		t.Fatalf("BerryEsseen = %v want %v", got, want)
	}
	if !math.IsNaN(BerryEsseen(1, 0, 10)) || !math.IsNaN(BerryEsseen(1, 1, 0)) {
		t.Fatal("degenerate inputs not NaN")
	}
}
