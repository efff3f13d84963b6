package ldp

import (
	"math"
	"testing"

	"ldprecover/internal/rng"
)

// TestBatchSimulateValidation: every protocol (SUE included) rejects a nil
// rng, wrong-length counts and a negative count before drawing anything,
// and maps an all-zero population to all-zero support counts.
func TestBatchSimulateValidation(t *testing.T) {
	const d = 10
	for _, p := range shardedTestProtocols(t, d, 0.5) {
		r := rng.New(1)
		if _, err := p.SimulateGenuineCounts(nil, make([]int64, d)); err == nil {
			t.Fatalf("%s accepted nil rng", p.Name())
		}
		if _, err := p.SimulateGenuineCounts(r, make([]int64, 4)); err == nil {
			t.Fatalf("%s accepted wrong-length counts", p.Name())
		}
		bad := make([]int64, d)
		bad[7] = -3
		if _, err := p.SimulateGenuineCounts(r, bad); err == nil {
			t.Fatalf("%s accepted negative count", p.Name())
		}
		zero, err := p.SimulateGenuineCounts(r, make([]int64, d))
		if err != nil {
			t.Fatal(err)
		}
		for v, c := range zero {
			if c != 0 {
				t.Fatalf("%s: empty population gives count %d at item %d", p.Name(), c, v)
			}
		}
		// The rejected calls must not have advanced the stream.
		trueCounts := make([]int64, d)
		for v := range trueCounts {
			trueCounts[v] = int64(40 + 9*v)
		}
		got, err := p.SimulateGenuineCounts(r, trueCounts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.SimulateGenuineCounts(rng.New(1), trueCounts)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: rejected calls consumed randomness (item %d: %d vs %d)", p.Name(), v, got[v], want[v])
			}
		}
	}
}

// TestParallelGRRConservation: GRR support counts sum to exactly n when
// the population is sparse — zero-count items (first, last and interior)
// are skipped, yet the flipped reports still land on every item in range.
func TestParallelGRRConservation(t *testing.T) {
	const d = 40
	grr, err := NewGRR(d, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	trueCounts := make([]int64, d)
	var n int64
	for v := range trueCounts {
		if v == 0 || v == d-1 || v%3 == 0 {
			continue
		}
		trueCounts[v] = int64(50 + 7*v)
		n += trueCounts[v]
	}
	r := rng.New(31)
	reached := make([]bool, d)
	for trial := 0; trial < 30; trial++ {
		sim, err := grr.SimulateGenuineCounts(r, trueCounts)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for v, c := range sim {
			if c < 0 {
				t.Fatal("negative support count")
			}
			if c > 0 {
				reached[v] = true
			}
			total += c
		}
		if total != n {
			t.Fatalf("trial %d: counts sum %d want %d", trial, total, n)
		}
	}
	for v, ok := range reached {
		if !ok {
			t.Fatalf("item %d never received a flipped report", v)
		}
	}
}

// TestBatchMatchesReportLevelDistribution is the count-vs-report-level
// property: over repeated trials, SimulateGenuineCounts and the exact
// PerturbAll+CountSupports pipeline must agree on every item's mean
// support count within CLT confidence bounds, and on its variance within
// an F-test-style ratio bound.
func TestBatchMatchesReportLevelDistribution(t *testing.T) {
	const (
		d, eps = 10, 0.8
		trials = 120
	)
	trueCounts := []int64{400, 350, 300, 250, 200, 150, 100, 80, 60, 40}
	var n int64
	for _, c := range trueCounts {
		n += c
	}
	r := rng.New(2024)
	for _, p := range shardedTestProtocols(t, d, eps) {
		batchSum := make([]float64, d)
		batchSq := make([]float64, d)
		exactSum := make([]float64, d)
		exactSq := make([]float64, d)
		for trial := 0; trial < trials; trial++ {
			batch, err := p.SimulateGenuineCounts(r, trueCounts)
			if err != nil {
				t.Fatal(err)
			}
			reports, err := PerturbAll(p, r, trueCounts)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := CountSupports(reports, d)
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < d; v++ {
				b, e := float64(batch[v]), float64(exact[v])
				batchSum[v] += b
				batchSq[v] += b * b
				exactSum[v] += e
				exactSq[v] += e * e
			}
		}
		pr := p.Params()
		for v := 0; v < d; v++ {
			bMean := batchSum[v] / trials
			eMean := exactSum[v] / trials
			// Theoretical sd of C(v) from the marginal binomials.
			nv := float64(trueCounts[v])
			varC := nv*pr.P*(1-pr.P) + (float64(n)-nv)*pr.Q*(1-pr.Q)
			se := math.Sqrt(2 * varC / trials) // sd of a difference of means
			if math.Abs(bMean-eMean) > 6*se {
				t.Fatalf("%s: item %d mean diverges: batch %v exact %v (se %v)",
					p.Name(), v, bMean, eMean, se)
			}
			bVar := batchSq[v]/trials - bMean*bMean
			eVar := exactSq[v]/trials - eMean*eMean
			if eVar <= 0 || bVar <= 0 {
				t.Fatalf("%s: item %d degenerate variance: batch %v exact %v",
					p.Name(), v, bVar, eVar)
			}
			// With 120 trials the variance ratio concentrates near 1; a
			// factor-3 band is ~10 sigma, so a failure means a real bug.
			if ratio := bVar / eVar; ratio > 3 || ratio < 1.0/3 {
				t.Fatalf("%s: item %d variance ratio %v (batch %v exact %v)",
					p.Name(), v, ratio, bVar, eVar)
			}
		}
	}
}

// TestSimulatedCountsFeedShardedAccumulator: the intended pairing —
// simulated counts folded through AddCounts — yields unbiased estimates
// of the true frequencies.
func TestSimulatedCountsFeedShardedAccumulator(t *testing.T) {
	const d, eps = 8, 1.0
	oue, err := NewOUE(d, eps)
	if err != nil {
		t.Fatal(err)
	}
	trueCounts := []int64{4000, 3000, 2000, 1000, 800, 600, 400, 200}
	var n int64
	for _, c := range trueCounts {
		n += c
	}
	trueF := make([]float64, d)
	for v, c := range trueCounts {
		trueF[v] = float64(c) / float64(n)
	}
	sa, err := NewShardedAccumulator(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(404)
	counts, err := oue.SimulateGenuineCounts(r, trueCounts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.AddCounts(counts, n); err != nil {
		t.Fatal(err)
	}
	est, err := sa.Estimate(oue.Params())
	if err != nil {
		t.Fatal(err)
	}
	for v := range est {
		se := math.Sqrt(oue.Variance(trueF[v], n)) / float64(n)
		if math.Abs(est[v]-trueF[v]) > 6*se {
			t.Fatalf("item %d: estimate %v true %v (se %v)", v, est[v], trueF[v], se)
		}
	}
}
