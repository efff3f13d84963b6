package stats

import (
	"math"
	"testing"

	"ldprecover/internal/rng"
)

func TestKSStatisticUniform(t *testing.T) {
	// Sample from the RNG, test against U(0,1); must pass at alpha=0.001.
	r := rng.New(42)
	sample := make([]float64, 5000)
	for i := range sample {
		sample[i] = r.Float64()
	}
	d, err := KSStatistic(sample, func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	})
	if err != nil {
		t.Fatal(err)
	}
	if crit := KSCriticalValue(len(sample), 0.001); d > crit {
		t.Fatalf("uniform sample rejected: D=%v crit=%v", d, crit)
	}
}

func TestKSStatisticDetectsMismatch(t *testing.T) {
	// Uniform sample vs N(0,1) CDF must be strongly rejected.
	r := rng.New(43)
	sample := make([]float64, 2000)
	for i := range sample {
		sample[i] = r.Float64()
	}
	d, err := KSStatistic(sample, func(x float64) float64 { return NormalCDF(x, 0, 1) })
	if err != nil {
		t.Fatal(err)
	}
	if d < 0.2 {
		t.Fatalf("KS failed to detect wrong distribution: D=%v", d)
	}
}

func TestKSEmptySample(t *testing.T) {
	if _, err := KSStatistic(nil, func(float64) float64 { return 0 }); err == nil {
		t.Fatal("empty sample accepted")
	}
}

func TestNormalSamplesPassKS(t *testing.T) {
	// End-to-end: rng.NormFloat64 against NormalCDF through the KS test.
	r := rng.New(44)
	sample := make([]float64, 5000)
	for i := range sample {
		sample[i] = r.NormFloat64()
	}
	d, err := KSStatistic(sample, func(x float64) float64 { return NormalCDF(x, 0, 1) })
	if err != nil {
		t.Fatal(err)
	}
	if crit := KSCriticalValue(len(sample), 0.001); d > crit {
		t.Fatalf("normal sample rejected: D=%v crit=%v", d, crit)
	}
}

func TestKSCriticalValueEdges(t *testing.T) {
	if !math.IsNaN(KSCriticalValue(0, 0.05)) {
		t.Fatal("n=0 accepted")
	}
	if !math.IsNaN(KSCriticalValue(10, 0)) {
		t.Fatal("alpha=0 accepted")
	}
	// Known value: c(0.05) ~= 1.358 => crit at n=100 ~= 0.1358.
	if got := KSCriticalValue(100, 0.05); !almostEq(got, 0.1358, 5e-3) {
		t.Fatalf("crit = %v", got)
	}
}
