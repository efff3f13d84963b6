package rng

import (
	"math"
	"testing"
)

func TestFixedProbEdges(t *testing.T) {
	if FixedProb(0) != 0 || FixedProb(-1) != 0 {
		t.Fatal("non-positive p must map to threshold 0")
	}
	if FixedProb(1) != ^uint64(0) || FixedProb(2) != ^uint64(0) {
		t.Fatal("p >= 1 must map to the saturated threshold")
	}
	// Just below 1: must not overflow the float->uint64 conversion.
	if th := FixedProb(1 - 1e-18); th < ^uint64(0)-(1<<16) {
		t.Fatalf("p≈1 threshold %d implausibly small", th)
	}
	if th := FixedProb(0.5); th != 1<<63 {
		t.Fatalf("p=0.5 threshold %d want %d", th, uint64(1)<<63)
	}
}

func TestBernoulliU64MatchesProbability(t *testing.T) {
	r := New(11)
	for _, p := range []float64{0.01, 0.25, 0.5, 0.9} {
		th := FixedProb(p)
		const trials = 200000
		hits := 0
		for i := 0; i < trials; i++ {
			if r.BernoulliU64(th) {
				hits++
			}
		}
		got := float64(hits) / trials
		// 5-sigma binomial bound.
		tol := 5 * math.Sqrt(p*(1-p)/trials)
		if math.Abs(got-p) > tol {
			t.Fatalf("p=%v: empirical %v outside ±%v", p, got, tol)
		}
	}
}

func TestBernoulliU64Degenerate(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		if r.BernoulliU64(0) {
			t.Fatal("threshold 0 returned true")
		}
		if !r.BernoulliU64(^uint64(0)) {
			t.Fatal("saturated threshold returned false")
		}
	}
}

// TestBernoulliU64UniformConsumption: every BernoulliU64 call advances the
// stream exactly once, regardless of threshold, so samplers built on it
// stay draw-aligned across parameter choices.
func TestBernoulliU64UniformConsumption(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		a.BernoulliU64(FixedProb(0.1))
		b.BernoulliU64(^uint64(0))
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("streams diverged: BernoulliU64 consumption depends on threshold")
	}
}

func BenchmarkBernoulliFloat(b *testing.B) {
	r := New(1)
	n := 0
	for i := 0; i < b.N; i++ {
		if r.Bernoulli(0.377) {
			n++
		}
	}
	_ = n
}

func BenchmarkBernoulliU64(b *testing.B) {
	r := New(1)
	th := FixedProb(0.377)
	n := 0
	for i := 0; i < b.N; i++ {
		if r.BernoulliU64(th) {
			n++
		}
	}
	_ = n
}

// TestFixedProbNaN: NaN must clamp to the impossible threshold, not fall
// through to the implementation-dependent float->uint64 conversion
// (which on amd64 yields 1<<63 — a coin flip masquerading as a
// probability). Regression test for the audit-tier sampling-math sweep.
func TestFixedProbNaN(t *testing.T) {
	if th := FixedProb(math.NaN()); th != 0 {
		t.Fatalf("FixedProb(NaN) = %d want 0", th)
	}
}

// TestFixedProbExactThresholds pins the fixed-point conversion contract:
// scaling by 2^64 is exact (pure exponent shift), so for p >= 2^-11 the
// threshold reproduces p with zero error, and below that the rounding
// error is at most half an output ulp (2^-65 in probability).
func TestFixedProbExactThresholds(t *testing.T) {
	exact := []struct {
		p  float64
		th uint64
	}{
		{0.5, 1 << 63},
		{0.25, 1 << 62},
		{0.75, 3 << 62},
		{1.0 / 1024, 1 << 54},
		// Largest p below 1: 1-2^-53 scales to 2^64-2^11 exactly.
		{1 - 0x1p-53, ^uint64(0) - (1 << 11) + 1},
		// Smallest representable regime: p*2^64 rounds to the nearest
		// integer, half away from zero.
		{0x1p-64, 1},
		{0x1p-65, 1},
		{0x1p-66, 0},
		{5e-324, 0}, // subnormal underflows the threshold entirely
	}
	for _, c := range exact {
		if th := FixedProb(c.p); th != c.th {
			t.Fatalf("FixedProb(%g) = %d want %d", c.p, th, c.th)
		}
	}
	// p >= 2^-11: threshold/2^64 must equal p bit-for-bit. float64(th) is
	// exact here because th carries at most 53 significant bits (it is
	// p's mantissa shifted).
	r := New(99)
	for i := 0; i < 1000; i++ {
		p := math.Ldexp(r.Float64()+0.001, -int(r.Uint64n(11)))
		if p <= 0 || p >= 1 || p < 0x1p-11 {
			continue
		}
		th := FixedProb(p)
		if got := float64(th) * 0x1p-64; got != p {
			t.Fatalf("FixedProb(%v) realizes %v (threshold %d): not exact", p, got, th)
		}
	}
	// Below 2^-11 the absolute rounding error must stay within half an
	// output ulp.
	for _, p := range []float64{0x1p-12, 3e-5, 7e-9, 1e-15, 0x1.5p-40} {
		th := FixedProb(p)
		if d := math.Abs(float64(th) - p*0x1p64); d > 0.5 {
			t.Fatalf("FixedProb(%v) = %d: |th - p*2^64| = %v > 0.5", p, th, d)
		}
	}
}
