package main

import (
	"math"
	"strings"
	"testing"

	"ldprecover/internal/core"
	"ldprecover/internal/ldp"
)

// servedEstimate builds the window-1 estimate a correct server returns
// for the verification set of a small seeded workload.
func servedEstimate(t *testing.T, targets []int) (*estimateDoc, []int64, int64, ldp.Params) {
	t.Helper()
	w := workload{protocol: "oue", d: 32, lane: reportLane}
	in, err := genInputs(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	pr := in.proto.Params()
	acc, err := ldp.NewAccumulator(pr.Domain)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range in.verify {
		if err := acc.AddBatchFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	poisoned, err := ldp.Unbias(acc.Counts(), acc.Total(), pr)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := core.Recover(poisoned, core.Params{P: pr.P, Q: pr.Q, Domain: pr.Domain},
		core.Options{Eta: core.DefaultEta, Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	est := &estimateDoc{Epochs: 1, Total: acc.Total(), Poisoned: poisoned, Recovered: rec.Frequencies,
		Targets: targets, PartialKnowledge: rec.PartialKnowledge}
	return est, acc.Counts(), acc.Total(), pr
}

func TestCheckEstimateAcceptsCorrectServer(t *testing.T) {
	est, counts, total, pr := servedEstimate(t, nil)
	if err := checkEstimate(est, counts, total, pr, nil); err != nil {
		t.Fatalf("a correct non-knowledge estimate failed: %v", err)
	}
	est, counts, total, pr = servedEstimate(t, []int{3, 9})
	if err := checkEstimate(est, counts, total, pr, []int{3, 9}); err != nil {
		t.Fatalf("a correct LDPRecover* estimate failed: %v", err)
	}
}

// One float off by a single ulp must fail the gate.
func TestCheckEstimateRejectsOneFlippedFloat(t *testing.T) {
	for _, field := range []string{"poisoned", "recovered"} {
		est, counts, total, pr := servedEstimate(t, nil)
		v := est.Poisoned
		if field == "recovered" {
			v = est.Recovered
		}
		v[5] = math.Nextafter(v[5], math.Inf(1))
		err := checkEstimate(est, counts, total, pr, nil)
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("flipped %s float: err = %v, want a %s mismatch", field, err, field)
		}
	}
}

func TestCheckEstimateRejectsWrongShapeAndTargets(t *testing.T) {
	est, counts, total, pr := servedEstimate(t, nil)
	if err := checkEstimate(est, counts, total+1, pr, nil); err == nil {
		t.Error("a report total off by one passed")
	}
	est.Poisoned = est.Poisoned[:len(est.Poisoned)-1]
	if err := checkEstimate(est, counts, total, pr, nil); err == nil {
		t.Error("a truncated estimate passed")
	}
	est, counts, total, pr = servedEstimate(t, nil)
	if err := checkEstimate(est, counts, total, pr, []int{3, 9}); err == nil {
		t.Error("non-knowledge recovery passed where LDPRecover* must engage")
	}
	est, counts, total, pr = servedEstimate(t, []int{3, 9})
	if err := checkEstimate(est, counts, total, pr, []int{3, 10}); err == nil {
		t.Error("LDPRecover* on the wrong targets passed")
	}
}
