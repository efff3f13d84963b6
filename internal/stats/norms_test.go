package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMSEBasic(t *testing.T) {
	got, err := MSE([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil || got != 0 {
		t.Fatalf("identical MSE = %v, %v", got, err)
	}
	got, err = MSE([]float64{0, 0}, []float64{1, -1})
	if err != nil || got != 1 {
		t.Fatalf("MSE = %v want 1 (err %v)", got, err)
	}
}

func TestMSEErrors(t *testing.T) {
	if _, err := MSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := MSE(nil, nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestFrequencyGain(t *testing.T) {
	est := []float64{0.5, 0.3, 0.2}
	gen := []float64{0.4, 0.4, 0.2}
	fg, err := FrequencyGain(est, gen, []int{0})
	if err != nil || math.Abs(fg-0.1) > 1e-12 {
		t.Fatalf("fg %v (err %v)", fg, err)
	}
	fg, err = FrequencyGain(est, gen, []int{0, 1})
	if err != nil || math.Abs(fg) > 1e-12 {
		t.Fatalf("fg %v (err %v)", fg, err)
	}
}

func TestFrequencyGainValidation(t *testing.T) {
	if _, err := FrequencyGain([]float64{1}, []float64{1, 2}, []int{0}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FrequencyGain([]float64{1}, []float64{1}, nil); err == nil {
		t.Fatal("no targets accepted")
	}
	if _, err := FrequencyGain([]float64{1}, []float64{1}, []int{5}); err == nil {
		t.Fatal("out-of-range target accepted")
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, -2, 0}) {
		t.Fatal("finite vector rejected")
	}
	if AllFinite([]float64{1, math.NaN()}) {
		t.Fatal("NaN accepted")
	}
	if AllFinite([]float64{math.Inf(-1)}) {
		t.Fatal("Inf accepted")
	}
	if !AllFinite(nil) {
		t.Fatal("empty vector rejected")
	}
	edges := []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0, -1e-300}
	if !AllFinite(edges) {
		t.Fatal("finite extremes rejected")
	}
	for i := range edges {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			x := append([]float64(nil), edges...)
			x[i] = bad
			if AllFinite(x) {
				t.Fatalf("%v at index %d accepted", bad, i)
			}
		}
	}
}

func TestMSESymmetricProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		a, b = a[:n], b[:n]
		if !AllFinite(a) || !AllFinite(b) {
			return true
		}
		for i := range a {
			if math.Abs(a[i]) > 1e100 || math.Abs(b[i]) > 1e100 {
				return true
			}
		}
		m1, err1 := MSE(a, b)
		m2, err2 := MSE(b, a)
		return err1 == nil && err2 == nil && m1 == m2 && m1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
