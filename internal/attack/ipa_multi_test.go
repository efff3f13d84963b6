package attack

import (
	"math"
	"testing"

	"ldprecover/internal/ldp"
	"ldprecover/internal/rng"
)

func TestNewIPAValidation(t *testing.T) {
	if _, err := newIPA(nil, "IPA"); err == nil {
		t.Fatal("empty dist accepted")
	}
	if _, err := newIPA([]float64{-1, 2}, "IPA"); err == nil {
		t.Fatal("negative prob accepted")
	}
	if _, err := newIPA([]float64{0}, "IPA"); err == nil {
		t.Fatal("zero mass accepted")
	}
	if _, err := newIPA([]float64{math.NaN()}, "IPA"); err == nil {
		t.Fatal("NaN accepted")
	}
}

func TestNewMGAIPAValidation(t *testing.T) {
	if _, err := NewMGAIPA(nil, 10); err == nil {
		t.Fatal("no targets accepted")
	}
	if _, err := NewMGAIPA([]int{12}, 10); err == nil {
		t.Fatal("target outside domain accepted")
	}
	a, err := NewMGAIPA([]int{2, 5}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "MGA-IPA" {
		t.Fatalf("name %q", a.Name())
	}
	ts := a.Targets()
	if len(ts) != 2 || ts[0] != 2 || ts[1] != 5 {
		t.Fatalf("targets %v", ts)
	}
}

func TestIPAReportsAreHonestlyPerturbed(t *testing.T) {
	// Under IPA with GRR, reports must NOT all be targets: perturbation
	// flips most of them away under small epsilon.
	const d, eps = 50, 0.5
	a, err := NewMGAIPA([]int{7}, d)
	if err != nil {
		t.Fatal(err)
	}
	grr, _ := ldp.NewGRR(d, eps)
	r := rng.New(3)
	reports, err := a.CraftReports(r, grr, 5000)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, rep := range reports {
		if rep.Supports(7) {
			hits++
		}
	}
	rate := float64(hits) / 5000
	p := grr.Params().P
	if math.Abs(rate-p) > 5*math.Sqrt(p*(1-p)/5000) {
		t.Fatalf("IPA target-support rate %v want honest p=%v", rate, p)
	}
}

func TestIPACountsMatchReports(t *testing.T) {
	a, err := NewMGAIPA([]int{1, 2}, 15)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range protocols(t, 15, 0.8) {
		assertReportsMatchCounts(t, a, p, 400, 40, 0.06)
	}
}

// TestIPAWeakerThanMGA reproduces the Fig. 8 shape at test scale: the
// frequency distortion of MGA-IPA is orders of magnitude below MGA's.
func TestIPAWeakerThanMGA(t *testing.T) {
	const d, eps = 30, 0.5
	const n, m = int64(60000), int64(3000)
	targets := []int{4, 9, 14}
	mga, _ := NewMGA(targets)
	ipa, _ := NewMGAIPA(targets, d)

	genuine := make([]int64, d)
	for v := range genuine {
		genuine[v] = n / int64(d)
	}
	trueF := make([]float64, d)
	for v := range trueF {
		trueF[v] = 1 / float64(d)
	}
	grr, _ := ldp.NewGRR(d, eps)
	r := rng.New(21)

	mseOf := func(a Attack) float64 {
		gen, err := grr.SimulateGenuineCounts(r, genuine)
		if err != nil {
			t.Fatal(err)
		}
		mal, err := a.CraftCounts(r, grr, m)
		if err != nil {
			t.Fatal(err)
		}
		comb := make([]int64, d)
		for v := range comb {
			comb[v] = gen[v] + mal[v]
		}
		fs, err := ldp.Unbias(comb, n+m, grr.Params())
		if err != nil {
			t.Fatal(err)
		}
		var mse float64
		for v := range fs {
			dv := fs[v] - trueF[v]
			mse += dv * dv
		}
		return mse / float64(d)
	}
	mgaMSE := mseOf(mga)
	ipaMSE := mseOf(ipa)
	if mgaMSE < 10*ipaMSE {
		t.Fatalf("MGA MSE %v not >> IPA MSE %v", mgaMSE, ipaMSE)
	}
}

func TestNewMultiValidation(t *testing.T) {
	if _, err := NewMulti(nil, nil); err == nil {
		t.Fatal("no attacks accepted")
	}
	if _, err := NewMulti([]Attack{nil}, nil); err == nil {
		t.Fatal("nil attack accepted")
	}
	a, _ := NewManip(0.5, 1)
	if _, err := NewMulti([]Attack{a}, []float64{1, 2}); err == nil {
		t.Fatal("weight length mismatch accepted")
	}
	if _, err := NewMulti([]Attack{a}, []float64{-1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewMulti([]Attack{a}, []float64{0}); err == nil {
		t.Fatal("zero weights accepted")
	}
}

func TestNewMultiAdaptive(t *testing.T) {
	r := rng.New(5)
	multi, err := NewMultiAdaptive(r, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Attacks) != 5 {
		t.Fatalf("%d attacks", len(multi.Attacks))
	}
	if _, err := NewMultiAdaptive(r, 0, 20); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewMultiAdaptive(nil, 2, 20); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestMultiSplitsAllUsers(t *testing.T) {
	r := rng.New(6)
	multi, err := NewMultiAdaptive(r, 4, 15)
	if err != nil {
		t.Fatal(err)
	}
	grr, _ := ldp.NewGRR(15, 0.5)
	reports, err := multi.CraftReports(r, grr, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1000 {
		t.Fatalf("%d reports want 1000", len(reports))
	}
	counts, err := multi.CraftCounts(r, grr, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if sumCounts(counts) != 1000 {
		t.Fatalf("counts sum %d want 1000", sumCounts(counts))
	}
}

func TestMultiTargetsUnion(t *testing.T) {
	m1, _ := NewMGA([]int{1, 2})
	m2, _ := NewMGA([]int{2, 3})
	manip, _ := NewManip(0.5, 7)
	multi, err := NewMulti([]Attack{m1, manip, m2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := multi.Targets()
	want := map[int]bool{1: true, 2: true, 3: true}
	if len(ts) != 3 {
		t.Fatalf("targets %v", ts)
	}
	for _, v := range ts {
		if !want[v] {
			t.Fatalf("unexpected target %d", v)
		}
	}
}

func TestMultiName(t *testing.T) {
	m1, _ := NewMGA([]int{1})
	manip, _ := NewManip(0.5, 7)
	multi, _ := NewMulti([]Attack{m1, manip}, nil)
	if multi.Name() != "MUL(MGA,Manip)" {
		t.Fatalf("name %q", multi.Name())
	}
}

func TestMultiWeights(t *testing.T) {
	// With weights 1:0, all users go to the first attack.
	m1, _ := NewMGA([]int{0})
	m2, _ := NewMGA([]int{9})
	multi, err := NewMulti([]Attack{m1, m2}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	grr, _ := ldp.NewGRR(10, 0.5)
	r := rng.New(8)
	counts, err := multi.CraftCounts(r, grr, 500)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 500 || counts[9] != 0 {
		t.Fatalf("weighted split wrong: %v", counts)
	}
}
