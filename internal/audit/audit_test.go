package audit

import (
	"math"
	"strings"
	"testing"

	"ldprecover/internal/ldp"
)

// TestRunCorrectProtocolsPass audits every protocol through every path
// at a moderate budget: the certified empirical epsilon must stay below
// the claimed budget (the audit is a lower bound) while the point
// estimate should land in its neighborhood for the itemwise max-ratio
// event, proving the distinguisher has real power and is not passing
// vacuously.
func TestRunCorrectProtocolsPass(t *testing.T) {
	for _, name := range Protocols {
		results, err := Run(Config{
			Protocol: name,
			Epsilon:  1,
			Domain:   16,
			Trials:   40000,
			Seed:     7,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(results) != len(AllPaths) {
			t.Fatalf("%s: %d results for %d paths", name, len(results), len(AllPaths))
		}
		for _, res := range results {
			if !res.Pass {
				t.Errorf("%s/%s: %s (eps_emp %.3f > eps %v)",
					name, res.Path, res.Verdict(), res.EpsEmp, res.Epsilon)
			}
			if res.EpsEmp <= 0 {
				t.Errorf("%s/%s: vacuous audit, eps_emp %v", name, res.Path, res.EpsEmp)
			}
			if res.EpsPoint < 0.5 || res.EpsPoint > 1.6 {
				t.Errorf("%s/%s: point estimate %.3f far from eps=1", name, res.Path, res.EpsPoint)
			}
			if !res.EpsHiUnbounded && res.EpsHi < res.EpsEmp {
				t.Errorf("%s/%s: upper end %.3f below certified lower %.3f",
					name, res.Path, res.EpsHi, res.EpsEmp)
			}
			var total0, total1 int64
			for _, ev := range res.Events {
				total0 += ev.CountV0
				total1 += ev.CountV1
			}
			if total0 != res.Trials || total1 != res.Trials {
				t.Errorf("%s/%s: event counts %d/%d do not partition %d trials",
					name, res.Path, total0, total1, res.Trials)
			}
		}
	}
}

// leakyProtocol is the canary: it claims epsilon = 1 but reports the
// truth with GRR probabilities for epsilon = 4 — a 4x privacy leak the
// audit must certify as a VIOLATION, or the gate is decorative.
type leakyProtocol struct {
	ldp.Protocol
	claimed ldp.Params
}

func (l leakyProtocol) Params() ldp.Params { return l.claimed }
func (l leakyProtocol) Name() string       { return "leakyGRR" }

// TestRunLeakyCanaryViolates drives the audit's itemwise path against
// the leaky canary; the certified lower bound must exceed the claimed
// budget and the verdict must name the offending event.
func TestRunLeakyCanaryViolates(t *testing.T) {
	strong, err := ldp.NewGRR(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	weakParams := strong.Params()
	weakParams.Epsilon = 1
	leaky := leakyProtocol{Protocol: strong, claimed: weakParams}

	res, err := auditPath(leaky, PathItemwise, Config{
		Protocol: "GRR",
		Epsilon:  1,
		Domain:   16,
		Trials:   40000,
		Seed:     11,
	}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Fatalf("leaky canary passed the gate: eps_emp %.3f vs claimed 1", res.EpsEmp)
	}
	if res.EpsEmp <= 1.5 {
		t.Fatalf("canary leak under-certified: eps_emp %.3f, true budget 4", res.EpsEmp)
	}
	if !strings.Contains(res.Verdict(), "VIOLATION") {
		t.Fatalf("verdict %q does not flag the violation", res.Verdict())
	}
	if res.MaxEvent == "" {
		t.Fatal("no offending event named")
	}
}

// TestRunValidation covers config validation and unknown names.
func TestRunValidation(t *testing.T) {
	for _, d := range []int{1, -3} {
		if _, err := Run(Config{Protocol: "GRR", Epsilon: 1, Domain: d}); err == nil {
			t.Fatalf("domain %d, too small for the neighboring inputs, accepted", d)
		}
	}
	if _, err := Run(Config{Protocol: "XYZ", Epsilon: 1}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := ParsePath("itemwise"); err != nil {
		t.Fatal("itemwise did not parse")
	}
	if _, err := ParsePath("nope"); err == nil {
		t.Fatal("bogus path parsed")
	}
}

// TestEpsEmpMonotoneInTrials pins the certification direction: more
// evidence can only tighten the certified lower bound toward the true
// budget, never past it.
func TestEpsEmpMonotoneInTrials(t *testing.T) {
	var prev float64
	for _, trials := range []int64{2000, 20000, 80000} {
		results, err := Run(Config{
			Protocol: "GRR",
			Epsilon:  2,
			Domain:   16,
			Trials:   trials,
			Seed:     3,
			Paths:    []Path{PathItemwise},
		})
		if err != nil {
			t.Fatal(err)
		}
		got := results[0].EpsEmp
		if got > 2 {
			t.Fatalf("trials=%d: certified %.3f above the true budget 2", trials, got)
		}
		if got < prev-0.05 {
			t.Fatalf("trials=%d: certified bound regressed %.3f -> %.3f", trials, prev, got)
		}
		prev = got
	}
	if prev < 1.5 {
		t.Fatalf("80k trials certified only %.3f of a 2.0 budget", prev)
	}
}

// TestRunRecoveryCleanPipeline runs a deliberately small grid through
// the real streamed pipeline: the shipped recovery code must keep the
// certified violation-rate bound under the gate.
func TestRunRecoveryCleanPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("streamed grid is seconds-long")
	}
	res, err := RunRecovery(RecoveryConfig{
		Protocol: "OUE",
		Epsilon:  1,
		Domain:   64,
		N:        60000,
		Betas:    []float64{0.1},
		Seeds:    []uint64{5, 6, 7, 8, 9, 10, 11, 12},
		Epochs:   16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 8 {
		t.Fatalf("%d runs for a 1x8 grid", len(res.Runs))
	}
	if res.Violated != 0 {
		t.Fatalf("clean pipeline violated guarantees: %+v", res.Runs)
	}
	if res.RateHi <= 0 || res.RateHi >= 1 {
		t.Fatalf("rate bound %v outside (0,1)", res.RateHi)
	}
	if !res.Pass {
		t.Fatalf("clean pipeline failed the gate: %s", res.Verdict())
	}
	for _, run := range res.Runs {
		if run.MSEFloor <= 0 || math.IsNaN(run.MSEFloor) {
			t.Fatalf("bogus MSE floor %v", run.MSEFloor)
		}
	}
}

// TestRunRecoveryUnknownProtocol: SUE has no streamed scenario.
func TestRunRecoveryUnknownProtocol(t *testing.T) {
	if _, err := RunRecovery(RecoveryConfig{Protocol: "SUE"}); err == nil {
		t.Fatal("SUE accepted for the recovery audit")
	}
}
