package hashx

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

// The v2 (Premixed) family's statistical contract: determinism, seed and
// input sensitivity, avalanche, uniform range reduction, pairwise
// independence and per-item uniformity across seeds.

func TestPremixedDeterministic(t *testing.T) {
	if Premix(1).Hash64(2) != Premix(1).Hash64(2) {
		t.Fatal("premixed hash not deterministic")
	}
}

func TestPremixedSeedSensitivity(t *testing.T) {
	collisions := 0
	for seed := uint64(0); seed < 1000; seed++ {
		if Premix(seed).Hash64(42) == Premix(seed+1).Hash64(42) {
			collisions++
		}
	}
	if collisions > 0 {
		t.Fatalf("%d seed collisions on the same input", collisions)
	}
}

func TestPremixedInputSensitivity(t *testing.T) {
	p := Premix(7)
	collisions := 0
	for x := uint64(0); x < 10000; x++ {
		if p.Hash64(x) == p.Hash64(x+1) {
			collisions++
		}
	}
	if collisions > 0 {
		t.Fatalf("%d adjacent-input collisions", collisions)
	}
}

// TestPremixedAvalanche: flipping one input bit must flip ~32 output bits
// on average, per-item stage included.
func TestPremixedAvalanche(t *testing.T) {
	const trials = 2000
	p := Premix(1234)
	var totalFlips, totalPairs float64
	for i := 0; i < trials; i++ {
		x := uint64(i) * 0x9e3779b97f4a7c15
		h := p.Hash64(x)
		for b := 0; b < 64; b++ {
			h2 := p.Hash64(x ^ (1 << uint(b)))
			totalFlips += float64(bits.OnesCount64(h ^ h2))
			totalPairs++
		}
	}
	avg := totalFlips / totalPairs
	if math.Abs(avg-32) > 1 {
		t.Fatalf("avalanche average %v bit flips, want ~32", avg)
	}
}

// TestPremixedSeedAvalanche: flipping one SEED bit must also avalanche,
// so that per-user seeds drawn from any source index unrelated functions.
func TestPremixedSeedAvalanche(t *testing.T) {
	const trials = 2000
	var totalFlips, totalPairs float64
	for i := 0; i < trials; i++ {
		seed := uint64(i) * 0xc4ceb9fe1a85ec53
		h := Premix(seed).Hash64(99)
		for b := 0; b < 64; b++ {
			h2 := Premix(seed ^ (1 << uint(b))).Hash64(99)
			totalFlips += float64(bits.OnesCount64(h ^ h2))
			totalPairs++
		}
	}
	avg := totalFlips / totalPairs
	if math.Abs(avg-32) > 1 {
		t.Fatalf("seed avalanche average %v bit flips, want ~32", avg)
	}
}

// TestPremixedToRangeUniform checks chi-square uniformity over small g
// for sequential item ids, OLH's access pattern.
func TestPremixedToRangeUniform(t *testing.T) {
	for _, g := range []int{2, 3, 5, 8, 16} {
		const n = 120000
		p := Premix(99)
		counts := make([]float64, g)
		for x := 0; x < n; x++ {
			v := p.ToRange(uint64(x), g)
			if v < 0 || v >= g {
				t.Fatalf("g=%d: out of range %d", g, v)
			}
			counts[v]++
		}
		exp := float64(n) / float64(g)
		var chi2 float64
		for _, c := range counts {
			d := c - exp
			chi2 += d * d / exp
		}
		limit := float64(g-1) + 6*math.Sqrt(2*float64(g-1)) + 10
		if chi2 > limit {
			t.Fatalf("g=%d: chi2=%v > %v", g, chi2, limit)
		}
	}
}

// TestPremixedPairwiseIndependence: P(H(x1)=H(x2)) over random seeds must
// be ~1/g, the property OLH's variance analysis needs.
func TestPremixedPairwiseIndependence(t *testing.T) {
	const g = 3
	const trials = 200000
	hits := 0
	for seed := uint64(0); seed < trials; seed++ {
		p := Premix(seed)
		if p.ToRange(10, g) == p.ToRange(20, g) {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-1.0/g) > 0.005 {
		t.Fatalf("collision rate %v want %v", got, 1.0/g)
	}
}

// TestPremixedPerItemUniformAcrossSeeds: for a fixed item, the hash value
// across seeds must be uniform (what aggregation sees for non-matching
// items).
func TestPremixedPerItemUniformAcrossSeeds(t *testing.T) {
	const g = 4
	const trials = 200000
	counts := make([]float64, g)
	for seed := uint64(0); seed < trials; seed++ {
		counts[Premix(seed).ToRange(123, g)]++
	}
	exp := float64(trials) / g
	for i, c := range counts {
		if math.Abs(c-exp)/exp > 0.02 {
			t.Fatalf("value %d: count %v want %v", i, c, exp)
		}
	}
}

func TestPremixedToRangeProperty(t *testing.T) {
	f := func(seed, x uint64, graw uint8) bool {
		g := int(graw%100) + 1
		v := Premix(seed).ToRange(x, g)
		return v >= 0 && v < g
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPremixedHash64(b *testing.B) {
	p := Premix(1234)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= p.Hash64(uint64(i))
	}
	_ = sink
}

// BenchmarkPremixedAmortized measures the realistic aggregation pattern:
// one premix amortized over a 128-item domain scan.
func BenchmarkPremixedAmortized(b *testing.B) {
	var sink int
	for i := 0; i < b.N; i++ {
		p := Premix(uint64(i))
		for v := uint64(0); v < 128; v++ {
			sink ^= p.ToRange(v, 3)
		}
	}
	_ = sink
}
