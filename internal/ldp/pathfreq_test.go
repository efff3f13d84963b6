package ldp

import (
	"fmt"
	"testing"

	"ldprecover/internal/rng"
	"ldprecover/internal/stats"
)

// Statistical acceptance tests for the three client perturbation paths:
// itemwise Perturb, PerturbAllInto bulk, and SimulateGenuineCounts
// count-level.
// Every report (or count vector) from a user holding v0 is projected onto
// the four events (Supports(v0), Supports(v1)) for a fixed v1 != v0, and
// the observed event frequencies must bracket the analytical
// probabilities within exact Clopper-Pearson confidence bounds. The
// projection is the same one the audit tier distinguishes on, so these
// tests pin the sampling math the empirical-epsilon gate depends on.

const (
	pathfreqTrials = 20000
	pathfreqConf   = 0.9999
	pathfreqV0     = 3
	pathfreqV1     = 11
	pathfreqDomain = 16
)

// eventProbs holds the analytical probabilities of the four support
// events, indexed as e[0]=(1,1), e[1]=(1,0), e[2]=(0,1), e[3]=(0,0).
type eventProbs [4]float64

func eventIndex(s0, s1 bool) int {
	switch {
	case s0 && s1:
		return 0
	case s0:
		return 1
	case s1:
		return 2
	default:
		return 3
	}
}

// independentEvents is the event law when Supports(v0) and Supports(v1)
// are independent Bernoulli(p) and Bernoulli(q) — exact for the unary
// protocols itemwise and for every count-level marginal pair.
func independentEvents(p, q float64) eventProbs {
	return eventProbs{p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q)}
}

// grrEvents is GRR's singleton-support law: the two supports are
// mutually exclusive.
func grrEvents(p, q float64) eventProbs {
	return eventProbs{0, p, q, 1 - p - q}
}

// olhItemwiseEvents is the joint law of one OLH report from a user
// holding v0: the report supports v0 iff the GRR stage kept the true
// hash (probability p'), and supports v1 via a hash collision (1/g) or a
// flip onto v1's hash value (q' per specific value).
func olhItemwiseEvents(pPrime, qPrime float64, g int) eventProbs {
	gg := float64(g)
	e := eventProbs{
		pPrime / gg,
		pPrime * (gg - 1) / gg,
		qPrime * (gg - 1) / gg,
	}
	e[3] = 1 - e[0] - e[1] - e[2]
	return e
}

// checkEventFreqs asserts that each analytical event probability lies
// inside the Clopper-Pearson interval of its observed count. Events with
// probability exactly zero must never occur.
func checkEventFreqs(t *testing.T, label string, counts [4]int64, want eventProbs) {
	t.Helper()
	var n int64
	for _, c := range counts {
		n += c
	}
	names := [4]string{"(1,1)", "(1,0)", "(0,1)", "(0,0)"}
	for i, c := range counts {
		if want[i] == 0 {
			if c != 0 {
				t.Errorf("%s event %s: %d occurrences of a zero-probability event", label, names[i], c)
			}
			continue
		}
		lo, hi, err := stats.ClopperPearson(c, n, pathfreqConf)
		if err != nil {
			t.Fatalf("%s event %s: %v", label, names[i], err)
		}
		if want[i] < lo || want[i] > hi {
			t.Errorf("%s event %s: analytic p=%.6f outside CP[%.6f, %.6f] (observed %d/%d)",
				label, names[i], want[i], lo, hi, c, n)
		}
	}
}

// pathfreqProtocols builds the protocol suite under test at a given
// budget, pairing each with its itemwise event law.
func pathfreqProtocols(t *testing.T, eps float64) []struct {
	proto    Protocol
	itemwise eventProbs
} {
	t.Helper()
	grr, err := NewGRR(pathfreqDomain, eps)
	if err != nil {
		t.Fatal(err)
	}
	oue, err := NewOUE(pathfreqDomain, eps)
	if err != nil {
		t.Fatal(err)
	}
	sue, err := NewSUE(pathfreqDomain, eps)
	if err != nil {
		t.Fatal(err)
	}
	olh, err := NewOLH(pathfreqDomain, eps)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		proto    Protocol
		itemwise eventProbs
	}{
		{grr, grrEvents(grr.Params().P, grr.Params().Q)},
		{oue, independentEvents(oue.Params().P, oue.Params().Q)},
		{sue, independentEvents(sue.Params().P, sue.Params().Q)},
		{olh, olhItemwiseEvents(olh.Params().P, olh.PerturbQ(), olh.G())},
	}
}

// TestItemwiseEventFrequencies drives Protocol.Perturb one report at a
// time. eps=4 runs the unary protocols' fixed-point per-bit sampler at a
// small q (OUE q = 1/(e^4+1) ≈ 0.018, SUE ≈ 0.12), far from the paper's
// budgets.
func TestItemwiseEventFrequencies(t *testing.T) {
	for _, eps := range []float64{1, 4} {
		for _, tc := range pathfreqProtocols(t, eps) {
			label := fmt.Sprintf("%s eps=%g itemwise", tc.proto.Name(), eps)
			r := rng.New(0xA5D17 ^ uint64(eps*1e3))
			var counts [4]int64
			for i := 0; i < pathfreqTrials; i++ {
				rep, err := tc.proto.Perturb(r, pathfreqV0)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				counts[eventIndex(rep.Supports(pathfreqV0), rep.Supports(pathfreqV1))]++
			}
			checkEventFreqs(t, label, counts, tc.itemwise)
		}
	}
}

// TestBulkEventFrequencies drives PerturbAllInto with a population of
// users all holding v0, reusing one scratch across budgets the way a
// steady-state pipeline does. The bulk arenas must realize the same
// event law as the itemwise path.
func TestBulkEventFrequencies(t *testing.T) {
	scratch := &PerturbScratch{}
	for _, eps := range []float64{1, 4} {
		for _, tc := range pathfreqProtocols(t, eps) {
			label := fmt.Sprintf("%s eps=%g bulk", tc.proto.Name(), eps)
			r := rng.New(0xB0C4 ^ uint64(eps*1e3))
			trueCounts := make([]int64, pathfreqDomain)
			trueCounts[pathfreqV0] = pathfreqTrials
			reports, err := PerturbAllInto(tc.proto, r, trueCounts, scratch)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			var counts [4]int64
			for _, rep := range reports {
				counts[eventIndex(rep.Supports(pathfreqV0), rep.Supports(pathfreqV1))]++
			}
			checkEventFreqs(t, label, counts, tc.itemwise)
		}
	}
}

// TestCountEventFrequencies drives SimulateGenuineCounts with a single
// user holding v0 per trial; the event is which of the two support counts is
// positive. GRR's count path is an exact single-report GRR (mutually
// exclusive supports); the unary and hashing protocols expose their
// aggregation-side marginals P and Q as independent binomials.
func TestCountEventFrequencies(t *testing.T) {
	for _, eps := range []float64{1, 4} {
		for _, tc := range pathfreqProtocols(t, eps) {
			pr := tc.proto.Params()
			want := independentEvents(pr.P, pr.Q)
			if tc.proto.Name() == "GRR" {
				want = grrEvents(pr.P, pr.Q)
			}
			label := fmt.Sprintf("%s eps=%g count", tc.proto.Name(), eps)
			r := rng.New(0xC0117 ^ uint64(eps*1e3))
			trueCounts := make([]int64, pathfreqDomain)
			trueCounts[pathfreqV0] = 1
			var counts [4]int64
			for i := 0; i < pathfreqTrials; i++ {
				out, err := tc.proto.SimulateGenuineCounts(r, trueCounts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				counts[eventIndex(out[pathfreqV0] > 0, out[pathfreqV1] > 0)]++
			}
			checkEventFreqs(t, label, counts, want)
		}
	}
}
