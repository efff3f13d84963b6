package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"ldprecover/internal/rng"
	"ldprecover/internal/stats"
)

func onSimplex(t *testing.T, fs []float64, tol float64) {
	t.Helper()
	for v, f := range fs {
		if f < -tol {
			t.Fatalf("negative frequency %v at %d", f, v)
		}
	}
	if s := stats.Sum(fs); math.Abs(s-1) > tol {
		t.Fatalf("frequencies sum to %v", s)
	}
}

func TestRefineKKTAlreadyOnSimplex(t *testing.T) {
	in := []float64{0.2, 0.3, 0.5}
	out, err := RefineKKT(in)
	if err != nil {
		t.Fatal(err)
	}
	for v := range in {
		if math.Abs(out[v]-in[v]) > 1e-12 {
			t.Fatalf("simplex point moved: %v -> %v", in, out)
		}
	}
}

func TestRefineKKTUniformShiftRemoved(t *testing.T) {
	// Adding a constant c to a simplex point must be undone exactly (no
	// clipping occurs when all entries stay positive).
	in := []float64{0.2 + 5, 0.3 + 5, 0.5 + 5}
	out, err := RefineKKT(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.2, 0.3, 0.5}
	for v := range want {
		if math.Abs(out[v]-want[v]) > 1e-9 {
			t.Fatalf("out %v want %v", out, want)
		}
	}
}

func TestRefineKKTClipsNegatives(t *testing.T) {
	in := []float64{-5, 0.4, 0.8}
	out, err := RefineKKT(in)
	if err != nil {
		t.Fatal(err)
	}
	onSimplex(t, out, 1e-9)
	if out[0] != 0 {
		t.Fatalf("strongly negative item kept mass %v", out[0])
	}
	if out[2] <= out[1] {
		t.Fatal("order not preserved")
	}
}

func TestRefineKKTSingleton(t *testing.T) {
	out, err := RefineKKT([]float64{-3})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 {
		t.Fatalf("singleton refinement %v want [1]", out)
	}
}

func TestRefineErrors(t *testing.T) {
	if _, err := RefineKKT(nil); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := RefineKKT([]float64{math.NaN(), 1}); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := ProjectSimplex(nil); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := ProjectSimplex([]float64{math.Inf(1)}); err == nil {
		t.Fatal("Inf accepted")
	}
}

func TestProjectSimplexKnown(t *testing.T) {
	// Projection of (1,1) is (0.5,0.5); of (2,0) is (1,0).
	out, err := ProjectSimplex([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-0.5) > 1e-12 || math.Abs(out[1]-0.5) > 1e-12 {
		t.Fatalf("out %v", out)
	}
	out, err = ProjectSimplex([]float64{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-1) > 1e-12 || out[1] != 0 {
		t.Fatalf("out %v", out)
	}
}

// TestRefineEqualsProjection: Algorithm 1's iterative KKT refinement must
// compute the exact Euclidean projection (the CI problem's unique
// optimum). Property-tested over random vectors.
func TestRefineEqualsProjection(t *testing.T) {
	f := func(seed uint64, dRaw uint8) bool {
		r := rng.New(seed)
		d := int(dRaw%60) + 1
		in := make([]float64, d)
		for v := range in {
			in[v] = 4 * (r.Float64() - 0.5) // mixed signs, magnitude ~2
		}
		kkt, err1 := RefineKKT(in)
		proj, err2 := ProjectSimplex(in)
		if err1 != nil || err2 != nil {
			return false
		}
		for v := range kkt {
			if math.Abs(kkt[v]-proj[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestRefineInvariantsProperty: output is on the simplex, idempotent, and
// order-preserving.
func TestRefineInvariantsProperty(t *testing.T) {
	f := func(seed uint64, dRaw uint8) bool {
		r := rng.New(seed)
		d := int(dRaw%60) + 2
		in := make([]float64, d)
		for v := range in {
			in[v] = 10 * (r.Float64() - 0.3)
		}
		out, err := RefineKKT(in)
		if err != nil {
			return false
		}
		// Simplex.
		var sum float64
		for _, f := range out {
			if f < 0 {
				return false
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		// Idempotent.
		again, err := RefineKKT(out)
		if err != nil {
			return false
		}
		for v := range out {
			if math.Abs(again[v]-out[v]) > 1e-9 {
				return false
			}
		}
		// Order preserving.
		for a := 0; a < d; a++ {
			for b := a + 1; b < d; b++ {
				if in[a] > in[b] && out[a] < out[b]-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestProjectionMinimizesL2 cross-checks optimality on small domains by
// comparing against dense sampling of feasible simplex points.
func TestProjectionMinimizesL2(t *testing.T) {
	r := rng.New(123)
	for trial := 0; trial < 50; trial++ {
		in := []float64{4 * (r.Float64() - 0.5), 4 * (r.Float64() - 0.5), 4 * (r.Float64() - 0.5)}
		opt, err := RefineKKT(in)
		if err != nil {
			t.Fatal(err)
		}
		optDist := distSq(opt, in)
		// Random feasible candidates must not beat the projection.
		for probe := 0; probe < 200; probe++ {
			a, b := r.Float64(), r.Float64()
			if a+b > 1 {
				a, b = 1-a, 1-b
			}
			cand := []float64{a, b, 1 - a - b}
			if distSq(cand, in) < optDist-1e-9 {
				t.Fatalf("candidate %v beats projection %v of %v", cand, opt, in)
			}
		}
	}
}

func distSq(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// ExampleProjectSimplex shows the refinement step in isolation.
func ExampleProjectSimplex() {
	out, _ := ProjectSimplex([]float64{0.9, -0.2, 0.5})
	fmt.Printf("%.2f %.2f %.2f\n", out[0], out[1], out[2])
	// Output: 0.70 0.00 0.30
}
