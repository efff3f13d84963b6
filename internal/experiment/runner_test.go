package experiment

import (
	"math"
	"testing"

	"ldprecover/internal/dataset"
)

// testDataset returns a small Zipf dataset for fast scenario tests.
func testDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Zipf("test", 40, 20000, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestScenarioValidation(t *testing.T) {
	ds := testDataset(t)
	if _, err := Run(Scenario{}); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := Run(Scenario{Dataset: ds, Beta: 1.5}); err == nil {
		t.Fatal("beta >= 1 accepted")
	}
	if _, err := Run(Scenario{Dataset: ds, Attack: NoAttack, Beta: 0.1}); err == nil {
		t.Fatal("NoAttack with beta > 0 accepted")
	}
	if _, err := Run(Scenario{Dataset: ds, Attack: MGAAttack, Eta: -1}); err == nil {
		t.Fatal("negative eta accepted")
	}
}

func TestKindStrings(t *testing.T) {
	if GRR.String() != "GRR" || OUE.String() != "OUE" || OLH.String() != "OLH" {
		t.Fatal("protocol names wrong")
	}
	if ProtocolKind(9).String() == "" {
		t.Fatal("unknown protocol name empty")
	}
	names := map[AttackKind]string{
		NoAttack: "none", ManipAttack: "Manip", MGAAttack: "MGA",
		AAAttack: "AA", MGAIPAAttack: "MGA-IPA", MultiAAAttack: "MUL-AA",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("attack %d name %q want %q", int(k), k.String(), want)
		}
	}
	if AttackKind(99).String() == "" {
		t.Fatal("unknown attack name empty")
	}
}

// TestParseProtocol: the CLIs' protocol names parse in any case, and
// each kind builds over the requested domain.
func TestParseProtocol(t *testing.T) {
	for name, want := range map[string]ProtocolKind{"grr": GRR, "OUE": OUE, "olh": OLH, "Grr": GRR} {
		k, err := ParseProtocol(name)
		if err != nil || k != want {
			t.Fatalf("%s: kind %v, err %v", name, k, err)
		}
		p, err := k.Build(10, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Params().Domain != 10 {
			t.Fatalf("%s: domain %d", name, p.Params().Domain)
		}
	}
	for _, name := range []string{"nope", "sue", ""} {
		if _, err := ParseProtocol(name); err == nil || err.Error() != `unknown protocol "`+name+`" (want grr, oue, olh)` {
			t.Fatalf("%q: err %v", name, err)
		}
	}
	if _, err := GRR.Build(1, 0.5); err == nil {
		t.Fatal("bad domain accepted")
	}
}

func TestMaliciousCount(t *testing.T) {
	if maliciousCount(1000, 0) != 0 {
		t.Fatal("beta=0 should give m=0")
	}
	// beta=0.05: m = 1000*0.05/0.95 ~= 53.
	if got := maliciousCount(1000, 0.05); got != 53 {
		t.Fatalf("m = %d want 53", got)
	}
	// Check beta round trip: m/(n+m) ~= beta.
	m := maliciousCount(100000, 0.2)
	beta := float64(m) / float64(100000+m)
	if math.Abs(beta-0.2) > 0.001 {
		t.Fatalf("beta round trip %v", beta)
	}
}

func TestRunNoAttack(t *testing.T) {
	m, err := Run(Scenario{
		Dataset:  testDataset(t),
		Protocol: OUE,
		Attack:   NoAttack,
		Beta:     0,
		Trials:   3,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.HasRecovery || m.HasStar || m.HasFG || m.HasDetect || m.HasKM {
		t.Fatalf("flags wrong: %+v", m)
	}
	if m.MSEBefore != m.MSEGenuine {
		t.Fatal("beta=0 must have MSEBefore == MSEGenuine")
	}
	if m.MSEGenuine <= 0 || m.MSEAfter <= 0 {
		t.Fatalf("degenerate MSEs: %+v", m)
	}
}

// TestRunMGAShape checks the paper's headline ordering at test scale:
// recovery reduces MSE, LDPRecover* does at least as well as LDPRecover,
// FG collapses after recovery.
func TestRunMGAShape(t *testing.T) {
	for _, proto := range AllProtocols {
		m, err := Run(Scenario{
			Dataset:      testDataset(t),
			Protocol:     proto,
			Attack:       MGAAttack,
			Trials:       5,
			Seed:         7,
			RunDetection: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if !m.HasStar || !m.HasFG || !m.HasDetect || !m.HasMal {
			t.Fatalf("%s: flags wrong: %+v", proto, m)
		}
		if m.MSEAfter >= m.MSEBefore {
			t.Fatalf("%s: recovery did not reduce MSE: before %v after %v",
				proto, m.MSEBefore, m.MSEAfter)
		}
		if m.FGBefore <= 0 {
			t.Fatalf("%s: attack produced no frequency gain: %v", proto, m.FGBefore)
		}
		if math.Abs(m.FGAfter) >= m.FGBefore {
			t.Fatalf("%s: recovery did not reduce FG: before %v after %v",
				proto, m.FGBefore, m.FGAfter)
		}
		// Partial knowledge estimates malicious frequencies at least as
		// accurately (Fig. 7's finding).
		if m.MSEMalPK > m.MSEMalNK*1.5 {
			t.Fatalf("%s: partial knowledge worsened malicious estimate: %v vs %v",
				proto, m.MSEMalPK, m.MSEMalNK)
		}
	}
}

func TestRunAARecoveryHelps(t *testing.T) {
	for _, proto := range AllProtocols {
		m, err := Run(Scenario{
			Dataset:  testDataset(t),
			Protocol: proto,
			Attack:   AAAttack,
			Trials:   5,
			Seed:     11,
		})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if m.MSEAfter >= m.MSEBefore {
			t.Fatalf("%s: AA recovery failed: before %v after %v",
				proto, m.MSEBefore, m.MSEAfter)
		}
	}
}

func TestRunManip(t *testing.T) {
	m, err := Run(Scenario{
		Dataset:  testDataset(t),
		Protocol: GRR,
		Attack:   ManipAttack,
		Trials:   5,
		Seed:     13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.HasFG {
		t.Fatal("untargeted attack reported FG")
	}
	if m.MSEAfter >= m.MSEBefore {
		t.Fatalf("Manip recovery failed: before %v after %v", m.MSEBefore, m.MSEAfter)
	}
}

func TestRunMGAIPAWeak(t *testing.T) {
	mga, err := Run(Scenario{
		Dataset: testDataset(t), Protocol: GRR, Attack: MGAAttack,
		Trials: 3, Seed: 17, SkipRecovery: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ipa, err := Run(Scenario{
		Dataset: testDataset(t), Protocol: GRR, Attack: MGAIPAAttack,
		Trials: 3, Seed: 17, SkipRecovery: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Compare the attack-induced MSE excess over each run's own LDP noise
	// floor: the general poisoning model must dominate input poisoning.
	mgaExcess := mga.MSEBefore - mga.MSEGenuine
	ipaExcess := ipa.MSEBefore - ipa.MSEGenuine
	if ipaExcess < 0 {
		ipaExcess = 0
	}
	if mgaExcess < 5*(ipaExcess+1e-6) {
		t.Fatalf("MGA excess (%v) not much stronger than MGA-IPA excess (%v)",
			mgaExcess, ipaExcess)
	}
	if mga.HasRecovery || ipa.HasRecovery {
		t.Fatal("SkipRecovery ignored")
	}
}

func TestRunMultiAttacker(t *testing.T) {
	m, err := Run(Scenario{
		Dataset:  testDataset(t),
		Protocol: OUE,
		Attack:   MultiAAAttack,
		Trials:   3,
		Seed:     19,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.MSEAfter >= m.MSEBefore {
		t.Fatalf("multi-attacker recovery failed: before %v after %v",
			m.MSEBefore, m.MSEAfter)
	}
}

func TestRunKMeansPath(t *testing.T) {
	m, err := Run(Scenario{
		Dataset:      testDataset(t),
		Protocol:     GRR,
		Attack:       MGAIPAAttack,
		Trials:       3,
		Seed:         23,
		RunKMeans:    true,
		Xi:           0.5,
		SkipRecovery: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.HasKM {
		t.Fatal("k-means metrics missing")
	}
	if m.MSEKMeans <= 0 || m.MSEKM <= 0 {
		t.Fatalf("degenerate k-means MSEs: %+v", m)
	}
}

func TestRunReportLevelAgreesWithCountLevel(t *testing.T) {
	base := Scenario{
		Dataset:  testDataset(t),
		Protocol: GRR,
		Attack:   MGAAttack,
		Trials:   5,
		Seed:     29,
	}
	fast, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	exact := base
	exact.ReportLevel = true
	slow, err := Run(exact)
	if err != nil {
		t.Fatal(err)
	}
	// Same statistics, independent randomness: agree within 3x (MSEs are
	// noisy at this scale; the ablation bench measures this more tightly).
	if fast.MSEBefore > 3*slow.MSEBefore || slow.MSEBefore > 3*fast.MSEBefore {
		t.Fatalf("sim paths disagree: fast %v exact %v", fast.MSEBefore, slow.MSEBefore)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	s := Scenario{
		Dataset:  testDataset(t),
		Protocol: OLH,
		Attack:   AAAttack,
		Trials:   2,
		Seed:     31,
	}
	a, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.MSEBefore != b.MSEBefore || a.MSEAfter != b.MSEAfter {
		t.Fatal("same seed produced different results")
	}
}
