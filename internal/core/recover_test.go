package core

import (
	"math"
	"testing"
	"testing/quick"

	"ldprecover/internal/rng"
	"ldprecover/internal/stats"
)

func TestRecoverValidation(t *testing.T) {
	pr := grrParams(5, 0.5)
	if _, err := Recover([]float64{1, 2}, pr, Options{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Recover(nil, Params{}, Options{}); err == nil {
		t.Fatal("invalid params accepted")
	}
	if _, err := Recover([]float64{math.NaN(), 0, 0, 0, 0}, pr, Options{}); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := Recover(make([]float64, 5), pr, Options{Eta: -1}); err == nil {
		t.Fatal("negative eta accepted")
	}
	if _, err := Recover(make([]float64, 5), pr, Options{Targets: []int{9}}); err == nil {
		t.Fatal("bad target accepted")
	}
	if _, err := Recover(make([]float64, 5), pr, Options{MaliciousOverride: []float64{1}}); err == nil {
		t.Fatal("override length mismatch accepted")
	}
	if _, err := Recover(make([]float64, 5), pr, Options{MaliciousOverride: []float64{1, math.Inf(1), 0, 0, 0}}); err == nil {
		t.Fatal("non-finite override accepted")
	}
}

// TestRecoverRefusesNonFinite: Recover refuses each non-finite value in
// poisoned and in a malicious override, at every position and in every
// mode, with that input's own error. Values that only turn non-finite
// inside recovery — a malicious share that overflows, an estimate that
// overflows — get the estimator's and the refiner's errors.
func TestRecoverRefusesNonFinite(t *testing.T) {
	const d = 5
	pr := grrParams(d, 0.5)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i := range d {
			vec := []float64{0.3, 0.2, 0.1, 0.25, 0.15}
			vec[i] = bad
			for _, opts := range []Options{{}, {Targets: []int{1}}, {SkipRefine: true}, {MaliciousOverride: make([]float64, d)}} {
				if _, err := Recover(vec, pr, opts); err == nil || err.Error() != "core: poisoned vector contains NaN or Inf" {
					t.Fatalf("poisoned %v with %+v: error %v", vec, opts, err)
				}
			}
			if _, err := Recover(make([]float64, d), pr, Options{MaliciousOverride: vec}); err == nil ||
				err.Error() != "core: malicious override contains NaN or Inf" {
				t.Fatalf("override %v: error %v", vec, err)
			}
		}
	}
	for _, c := range []struct {
		name     string
		poisoned []float64
		pr       Params
		opts     Options
		err      string // "" for success
	}{
		// p - q is subnormal, so Eq. 21's sum and every share overflow.
		{"malicious overflow", []float64{0.5, 0.3, 0.2}, Params{P: 5e-324, Domain: 3}, Options{}, "core: non-finite frequencies"},
		{"target share overflow", []float64{0.5, 0.3, 0.2}, Params{P: 5e-324, Domain: 3}, Options{Targets: []int{0}}, "core: non-finite frequencies"},
		{"invalid eta", []float64{0.5, 0.3, 0.2, 0, 0}, pr, Options{Eta: math.NaN()}, "core: invalid eta NaN"},
		// (1+η)·f̃_Z overflows for a finite f̃_Z.
		{"estimate overflow", []float64{math.MaxFloat64, 0, 0, 0, 0}, pr, Options{}, "core: refinement: core: refine on non-finite vector"},
		{"estimate overflow, override", []float64{math.MaxFloat64, 0, 0, 0, 0}, pr, Options{MaliciousOverride: make([]float64, d)}, "core: refinement: core: refine on non-finite vector"},
		{"estimate overflow, unrefined", []float64{math.MaxFloat64, 0, 0, 0, 0}, pr, Options{SkipRefine: true}, ""},
	} {
		res, err := Recover(c.poisoned, c.pr, c.opts)
		if c.err == "" {
			if err != nil || !math.IsInf(res.Frequencies[0], 1) {
				t.Fatalf("%s: error %v, result %+v", c.name, err, res)
			}
		} else if err == nil || err.Error() != c.err {
			t.Fatalf("%s: error %v, want %q", c.name, err, c.err)
		}
	}
}

func TestRecoverOutputOnSimplex(t *testing.T) {
	pr := grrParams(8, 0.5)
	poisoned := []float64{0.4, -0.05, 0.2, 0.3, 0.05, 0.02, 0.05, 0.03}
	res, err := Recover(poisoned, pr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	onSimplex(t, res.Frequencies, 1e-9)
	if res.Eta != DefaultEta {
		t.Fatalf("eta %v want default %v", res.Eta, DefaultEta)
	}
	if res.PartialKnowledge {
		t.Fatal("non-knowledge run flagged as partial")
	}
	wantSum, _ := MaliciousSum(pr)
	if math.Abs(res.MaliciousSum-wantSum) > 1e-12 {
		t.Fatalf("malicious sum %v want %v", res.MaliciousSum, wantSum)
	}
}

func TestRecoverOutputOnSimplexProperty(t *testing.T) {
	f := func(seed uint64, dRaw uint8, protoPick uint8) bool {
		r := rng.New(seed)
		d := int(dRaw%40) + 2
		var pr Params
		switch protoPick % 3 {
		case 0:
			pr = grrParams(d, 0.5)
		case 1:
			pr = oueParams(d, 0.5)
		default:
			pr = olhParams(d, 0.5)
		}
		poisoned := make([]float64, d)
		for v := range poisoned {
			poisoned[v] = 2 * (r.Float64() - 0.3)
		}
		res, err := Recover(poisoned, pr, Options{Eta: 0.2})
		if err != nil {
			return false
		}
		var sum float64
		for _, fr := range res.Frequencies {
			if fr < 0 {
				return false
			}
			sum += fr
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverPartialKnowledge(t *testing.T) {
	pr := oueParams(10, 0.5)
	poisoned := []float64{0.1, 0.1, 0.5, 0.05, 0.05, 0.05, 0.05, 0.4, 0.02, 0.03}
	res, err := Recover(poisoned, pr, Options{Targets: []int{2, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.PartialKnowledge {
		t.Fatal("partial run not flagged")
	}
	onSimplex(t, res.Frequencies, 1e-9)
	// The targeted items must be deflated relative to plain projection of
	// the poisoned vector.
	plain, err := RefineKKT(poisoned)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frequencies[2] >= plain[2] || res.Frequencies[7] >= plain[7] {
		t.Fatalf("targets not deflated: %v vs plain %v", res.Frequencies, plain)
	}
}

func TestRecoverMaliciousOverride(t *testing.T) {
	pr := grrParams(4, 0.5)
	poisoned := []float64{0.7, 0.1, 0.1, 0.1}
	override := []float64{1, 0, 0, 0} // all malicious mass on item 0
	res, err := Recover(poisoned, pr, Options{MaliciousOverride: override, Eta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MaliciousSum-1) > 1e-12 {
		t.Fatalf("override sum %v want 1", res.MaliciousSum)
	}
	// Estimator: item 0 gets 1.5*0.7 - 0.5*1 = 0.55; others 0.15.
	if math.Abs(res.EstimatedGenuine[0]-0.55) > 1e-12 {
		t.Fatalf("estimated genuine %v", res.EstimatedGenuine)
	}
	onSimplex(t, res.Frequencies, 1e-9)
}

func TestRecoverSkipRefine(t *testing.T) {
	pr := grrParams(4, 0.5)
	poisoned := []float64{0.9, 0.2, -0.1, 0.1}
	res, err := Recover(poisoned, pr, Options{SkipRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := range res.Frequencies {
		if res.Frequencies[v] != res.EstimatedGenuine[v] {
			t.Fatal("SkipRefine should return the raw estimate")
		}
	}
}

func TestRecoverCustomRefiner(t *testing.T) {
	pr := grrParams(4, 0.5)
	poisoned := []float64{0.9, 0.2, -0.1, 0.1}
	res, err := Recover(poisoned, pr, Options{Refiner: ProjectSimplex})
	if err != nil {
		t.Fatal(err)
	}
	resKKT, err := Recover(poisoned, pr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range res.Frequencies {
		if math.Abs(res.Frequencies[v]-resKKT.Frequencies[v]) > 1e-9 {
			t.Fatalf("refiners disagree: %v vs %v", res.Frequencies, resKKT.Frequencies)
		}
	}
}

// TestRecoverEndToEndMGAShape builds a synthetic MGA-poisoned vector
// analytically and verifies recovery cuts the error by a large factor and
// suppresses the target's gain (the paper's headline result at unit-test
// scale).
func TestRecoverEndToEndMGAShape(t *testing.T) {
	const d = 102
	pr := grrParams(d, 0.5)
	// Genuine: Zipf-ish decreasing frequencies.
	genuine := make([]float64, d)
	var z float64
	for v := range genuine {
		genuine[v] = 1 / float64(v+1)
		z += genuine[v]
	}
	for v := range genuine {
		genuine[v] /= z
	}
	// MGA on 10 targets at beta=0.05: in expectation each target gains
	// beta*(1/r - q)/(p-q) / (1+eta') ... build the poisoned vector from
	// the mixture equation (Eq. 14) with exact expectations.
	targets := []int{3, 13, 23, 33, 43, 53, 63, 73, 83, 93}
	beta := 0.05
	etaTrue := beta / (1 - beta)
	malicious := make([]float64, d)
	for v := range malicious {
		malicious[v] = -pr.Q * float64(d) / (float64(d) * (pr.P - pr.Q)) // baseline: -q/(p-q) each
	}
	for _, tt := range targets {
		malicious[tt] += 1.0 / (float64(len(targets)) * (pr.P - pr.Q))
	}
	poisoned := make([]float64, d)
	for v := range poisoned {
		poisoned[v] = genuine[v]/(1+etaTrue) + etaTrue*malicious[v]/(1+etaTrue)
	}

	res, err := Recover(poisoned, pr, Options{Eta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	msePoisoned, _ := stats.MSE(poisoned, genuine)
	mseRecovered, _ := stats.MSE(res.Frequencies, genuine)
	if mseRecovered > msePoisoned/3 {
		t.Fatalf("recovery too weak: poisoned MSE %v recovered %v", msePoisoned, mseRecovered)
	}

	// Partial knowledge should do at least as well on the targets.
	resStar, err := Recover(poisoned, pr, Options{Eta: 0.2, Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	var fg, fgStar float64
	for _, tt := range targets {
		fg += res.Frequencies[tt] - genuine[tt]
		fgStar += resStar.Frequencies[tt] - genuine[tt]
	}
	var fgPoisoned float64
	for _, tt := range targets {
		fgPoisoned += poisoned[tt] - genuine[tt]
	}
	if math.Abs(fg) > fgPoisoned/2 {
		t.Fatalf("FG not reduced: poisoned %v recovered %v", fgPoisoned, fg)
	}
	if fgStar > fg+1e-9 {
		t.Fatalf("partial knowledge worse on targets: %v vs %v", fgStar, fg)
	}
}

func TestRecoverDoesNotMutateInput(t *testing.T) {
	pr := grrParams(4, 0.5)
	poisoned := []float64{0.9, 0.2, -0.1, 0.1}
	orig := append([]float64(nil), poisoned...)
	if _, err := Recover(poisoned, pr, Options{}); err != nil {
		t.Fatal(err)
	}
	for v := range orig {
		if poisoned[v] != orig[v] {
			t.Fatal("Recover mutated its input")
		}
	}
}
